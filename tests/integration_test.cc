// End-to-end integration tests over the full stack: multi-user flows,
// predefined queries, the explore visual tool, usage statistics,
// StreamCorder peer-to-peer, and concurrent web browsing against a live
// repository.
#include <gtest/gtest.h>

#include <thread>

#include "client/streamcorder.h"
#include "core/strings.h"
#include "dm/predefined_queries.h"
#include "dm/remote.h"
#include "hedc_fixture.h"

namespace hedc {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : stack_(/*seed=*/5) {}

  std::string LoginCookie(const std::string& user,
                          const std::string& password) {
    web::HttpResponse response = stack_.node.web()->Dispatch(
        web::MakeRequest("/login?user=" + user + "&password=" + password));
    return response.set_cookies.count("hedc_session")
               ? response.set_cookies.at("hedc_session")
               : "";
  }

  testing::HedcStack stack_;
};

TEST_F(IntegrationTest, FullScientistWorkflow) {
  // 1. Alice logs in and browses the standard catalog.
  std::string cookie = LoginCookie("alice", "pw-a");
  ASSERT_FALSE(cookie.empty());
  web::HttpResponse catalog = stack_.node.web()->Dispatch(
      web::MakeRequest("/catalog?name=standard", "10.0.0.1", cookie));
  ASSERT_EQ(catalog.status_code, 200);

  // 2. She runs an analysis on the first event.
  ASSERT_FALSE(stack_.hle_ids.empty());
  int64_t hle = stack_.hle_ids[0];
  web::HttpResponse analyze = stack_.node.web()->Dispatch(web::MakeRequest(
      StrFormat("/analyze?hle_id=%lld&routine=spectrogram&t_bins=16"
                "&e_bins=8",
                static_cast<long long>(hle)),
      "10.0.0.1", cookie));
  ASSERT_EQ(analyze.status_code, 200) << analyze.body;

  // 3. The result shows up on the HLE page for everyone (public commit).
  web::HttpResponse page = stack_.node.web()->Dispatch(web::MakeRequest(
      StrFormat("/hle?id=%lld", static_cast<long long>(hle))));
  ASSERT_EQ(page.status_code, 200);
  EXPECT_NE(page.body.find("spectrogram"), std::string::npos);

  // 4. Usage statistics recorded every dispatched request.
  auto stats = stack_.node.db()->Execute("SELECT COUNT(*) FROM usage_stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().rows[0][0].AsInt(), 4);
}

TEST_F(IntegrationTest, PredefinedQueriesEndToEnd) {
  dm::PredefinedQueryService service(stack_.node.db());
  // Admin registers a vetted query.
  auto id = service.Register(
      "flares_after", "flares starting after a given time",
      "SELECT hle_id, t_start FROM hle WHERE event_type = 'flare' AND "
      "t_start >= ? ORDER BY t_start");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Writes are rejected at registration time.
  EXPECT_FALSE(service.Register("evil", "", "DELETE FROM hle").ok());
  EXPECT_FALSE(service.Register("flares_after", "dup", "SELECT * FROM hle")
                   .ok());

  dm::Session alice = stack_.Login("alice", "pw-a", "10.0.0.1");
  auto rows = service.Run(alice, "flares_after", {db::Value::Real(0)});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT(rows.value().num_rows(), 0u);
  EXPECT_TRUE(service.Run(alice, "missing", {}).status().IsNotFound());

  // Ad-hoc SQL: super only, read only.
  dm::Session import = stack_.import_session;
  EXPECT_TRUE(service.RunAdHoc(alice, "SELECT COUNT(*) FROM hle", {})
                  .status()
                  .IsPermissionDenied());
  auto adhoc = service.RunAdHoc(import, "SELECT COUNT(*) FROM hle", {});
  ASSERT_TRUE(adhoc.ok());
  EXPECT_FALSE(service.RunAdHoc(import, "DROP TABLE hle", {}).ok());

  // And through the web tier.
  std::string cookie = LoginCookie("alice", "pw-a");
  web::HttpResponse response = stack_.node.web()->Dispatch(
      web::MakeRequest("/query?name=flares_after&q0=0", "10.0.0.1", cookie));
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("rows"), std::string::npos);
}

TEST_F(IntegrationTest, ExploreVisualTool) {
  web::HttpResponse html = stack_.node.web()->Dispatch(
      web::MakeRequest("/explore?bins=16"));
  ASSERT_EQ(html.status_code, 200) << html.body;
  EXPECT_NE(html.body.find("clusters"), std::string::npos);

  web::HttpResponse image = stack_.node.web()->Dispatch(
      web::MakeRequest("/explore?bins=16&format=image"));
  ASSERT_EQ(image.status_code, 200);
  EXPECT_EQ(image.content_type, "image/gif");
  auto parsed = analysis::ParseRenderedImage(image.binary_body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().width, 16u);
}

TEST_F(IntegrationTest, StreamCorderPeerToPeer) {
  dm::Session session = stack_.Login("alice", "pw-a", "10.0.0.1");
  client::StreamCorder::Options options;
  options.cache_version = 2;
  client::StreamCorder node_a(stack_.node.dm(), session, options);
  client::StreamCorder node_b(stack_.node.dm(), session, options);
  node_b.AddPeer(&node_a);

  // A fetches from the server; B then gets it from A's cache.
  ASSERT_TRUE(node_a.FetchRawUnit(1).ok());
  EXPECT_EQ(node_a.server_fetches(), 1);
  auto via_peer = node_b.FetchRawUnit(1);
  ASSERT_TRUE(via_peer.ok()) << via_peer.status().ToString();
  EXPECT_EQ(node_b.server_fetches(), 0);
  EXPECT_EQ(node_b.peer_fetches(), 1);
  // B now serves from its own cache.
  ASSERT_TRUE(node_b.FetchRawUnit(1).ok());
  EXPECT_EQ(node_b.peer_fetches(), 1);
}

TEST_F(IntegrationTest, StatusPageForAdmins) {
  // Anonymous and normal users are refused.
  EXPECT_EQ(stack_.node.web()->Dispatch(web::MakeRequest("/status"))
                .status_code,
            403);
  std::string alice = LoginCookie("alice", "pw-a");
  EXPECT_EQ(stack_.node.web()
                ->Dispatch(web::MakeRequest("/status", "10.0.0.1", alice))
                .status_code,
            403);
  // The super import account sees archives and usage counters.
  std::string admin = LoginCookie("import", "pw-i");
  web::HttpResponse page = stack_.node.web()->Dispatch(
      web::MakeRequest("/status", "10.0.0.9", admin));
  ASSERT_EQ(page.status_code, 200) << page.body;
  EXPECT_NE(page.body.find("Archives"), std::string::npos);
  EXPECT_NE(page.body.find("disk"), std::string::npos);
  EXPECT_NE(page.body.find("Usage"), std::string::npos);
}

TEST_F(IntegrationTest, RemoteDmChannelAgainstLiveStack) {
  dm::RmiServer rmi(stack_.node.dm());
  dm::InProcessChannel channel(&rmi);
  dm::RemoteDm remote(&channel);
  dm::QuerySpec spec("hle");
  spec.CountOnly();
  auto rs = remote.Query(spec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows[0][0].AsInt(),
            static_cast<int64_t>(stack_.hle_ids.size()));
  // Raw unit file transfers over the channel byte-for-byte.
  auto direct = stack_.node.dm()->io().ReadItemFile(1);
  auto via_rmi = remote.ReadItemFile(1);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_rmi.ok());
  EXPECT_EQ(direct.value(), via_rmi.value());
}

TEST_F(IntegrationTest, ConcurrentBrowsersAndAnalysts) {
  std::string cookie = LoginCookie("alice", "pw-a");
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t, &cookie, &failures] {
      for (int i = 0; i < 25; ++i) {
        std::string url;
        switch ((t + i) % 3) {
          case 0:
            url = "/catalog?name=standard";
            break;
          case 1:
            url = StrFormat("/hle?id=%lld",
                            static_cast<long long>(
                                stack_.hle_ids[i % stack_.hle_ids.size()]));
            break;
          default:
            url = "/explore?bins=8";
        }
        web::HttpResponse r = stack_.node.web()->Dispatch(
            web::MakeRequest(url, StrFormat("10.0.1.%d", t), cookie));
        if (r.status_code != 200) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(stack_.node.web()->requests_served(), 100);
}

}  // namespace
}  // namespace hedc
