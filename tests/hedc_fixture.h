// Shared full-stack fixture: a booted hedc::Node with three users and the
// PL started, loaded with synthetic RHESSI telemetry. Used by the
// web/client/integration tests.
#ifndef HEDC_TESTS_HEDC_FIXTURE_H_
#define HEDC_TESTS_HEDC_FIXTURE_H_

#include <cstdio>
#include <cstdlib>

#include "core/clock.h"
#include "node/node.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

namespace hedc::testing {

class HedcStack {
 public:
  explicit HedcStack(uint64_t telemetry_seed = 5,
                     double telemetry_duration = 1200,
                     size_t photons_per_unit = 200000) {
    if (Status booted = node.Boot(); !booted.ok()) {
      std::fprintf(stderr, "node boot: %s\n", booted.ToString().c_str());
      std::abort();
    }

    // Users.
    dm::UserProfile analyst;
    analyst.can_download = analyst.can_analyze = analyst.can_upload = true;
    node.dm()->users().CreateUser("alice", "pw-a", analyst);
    node.dm()->users().CreateUser("bob", "pw-b", dm::UserProfile{});
    dm::UserProfile import_user;
    import_user.is_super = true;
    node.dm()->users().CreateUser("import", "pw-i", import_user);
    import_session = Login("import", "pw-i", "127.0.0.1");

    // Telemetry -> raw units -> loaded into the repository.
    rhessi::TelemetryOptions telemetry_options;
    telemetry_options.duration_sec = telemetry_duration;
    telemetry_options.flares_per_hour = 9;
    telemetry_options.saa_per_hour = 0;
    telemetry_options.seed = telemetry_seed;
    telemetry = rhessi::GenerateTelemetry(telemetry_options);
    for (const rhessi::RawDataUnit& unit :
         rhessi::SegmentIntoUnits(telemetry.photons, photons_per_unit, 1)) {
      auto report = node.process()->LoadRawUnit(import_session, unit.Pack());
      if (report.ok()) {
        for (int64_t hle : report.value().hle_ids) hle_ids.push_back(hle);
      }
    }

    node.StartPl(import_session);
  }

  dm::Session Login(const std::string& user, const std::string& password,
                    const std::string& ip) {
    dm::UserProfile profile =
        node.dm()->users().Authenticate(user, password).value();
    return node.dm()
        ->sessions()
        .GetOrCreate(profile, ip, "ck-" + user, dm::SessionKind::kHle)
        .value();
  }

  VirtualClock clock;
  Node node{"dm0", NodeOptions{}, &clock};
  dm::Session import_session;
  rhessi::Telemetry telemetry;
  std::vector<int64_t> hle_ids;
};

}  // namespace hedc::testing

#endif  // HEDC_TESTS_HEDC_FIXTURE_H_
