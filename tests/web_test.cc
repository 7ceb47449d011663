// Web tier tests: query parsing, templates, servlets end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "cluster_fixture.h"
#include "core/strings.h"
#include "hedc_fixture.h"
#include "web/http.h"
#include "web/http_tcp.h"
#include "web/tcp.h"
#include "web/template.h"
#include "archive/archive.h"
#include "core/metrics.h"
#include "dm/predefined_queries.h"
#include "dm/process_layer.h"
#include "rhessi/calibration.h"
#include "rhessi/raw_unit.h"
#include "wavelet/codec.h"

namespace hedc::web {
namespace {

TEST(HttpTest, ParseQueryString) {
  auto q = ParseQueryString("a=1&b=two+words&empty=&flag");
  EXPECT_EQ(q["a"], "1");
  EXPECT_EQ(q["b"], "two words");
  EXPECT_EQ(q["empty"], "");
  EXPECT_EQ(q["flag"], "");
}

TEST(HttpTest, MakeRequestSplitsPathAndQuery) {
  HttpRequest r = MakeRequest("/hle?id=7&x=y", "10.0.0.9", "tok");
  EXPECT_EQ(r.path, "/hle");
  EXPECT_EQ(r.GetQuery("id"), "7");
  EXPECT_EQ(r.client_ip, "10.0.0.9");
  EXPECT_EQ(r.GetCookie("hedc_session"), "tok");
  HttpRequest plain = MakeRequest("/catalog");
  EXPECT_EQ(plain.path, "/catalog");
  EXPECT_TRUE(plain.query.empty());
}

TEST(TemplateTest, ScalarSubstitutionEscapes) {
  TemplateContext ctx;
  ctx.Set("name", "<script>alert('x')</script>");
  auto r = RenderTemplate("Hello {{name}}!", ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(),
            "Hello &lt;script&gt;alert('x')&lt;/script&gt;!");
}

TEST(TemplateTest, RawSubstitution) {
  TemplateContext ctx;
  ctx.Set("html", "<b>bold</b>");
  auto r = RenderTemplate("{{&html}}", ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "<b>bold</b>");
}

TEST(TemplateTest, UnknownScalarRendersEmpty) {
  auto r = RenderTemplate("[{{missing}}]", TemplateContext{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "[]");
}

TEST(TemplateTest, SectionsRepeat) {
  TemplateContext ctx;
  ctx.AddRow("rows").Set("v", "a");
  ctx.AddRow("rows").Set("v", "b");
  auto r = RenderTemplate("<ul>{{#rows}}<li>{{v}}</li>{{/rows}}</ul>", ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "<ul><li>a</li><li>b</li></ul>");
}

TEST(TemplateTest, EmptySectionRendersNothing) {
  auto r = RenderTemplate("x{{#rows}}never{{/rows}}y", TemplateContext{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "xy");
}

TEST(TemplateTest, NestedSections) {
  TemplateContext ctx;
  TemplateContext& outer = ctx.AddRow("hles");
  outer.Set("id", "1");
  outer.AddRow("anas").Set("a", "x");
  outer.AddRow("anas").Set("a", "y");
  auto r = RenderTemplate(
      "{{#hles}}H{{id}}:{{#anas}}[{{a}}]{{/anas}};{{/hles}}", ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "H1:[x][y];");
}

TEST(TemplateTest, UnbalancedSectionFails) {
  EXPECT_FALSE(RenderTemplate("{{#rows}}x", TemplateContext{}).ok());
  EXPECT_FALSE(RenderTemplate("x{{/rows}}", TemplateContext{}).ok());
  EXPECT_FALSE(RenderTemplate("{{unclosed", TemplateContext{}).ok());
}

// The compiled engine: parse once, then render from slot numbers.
std::string Render(const Template& tmpl, const TemplateValues& values) {
  std::string out;
  tmpl.Render(values, &out);
  return out;
}

TEST(CompiledTemplateTest, CompileFailsOnUnbalancedOrUnterminatedTags) {
  EXPECT_FALSE(Template::Compile("{{#rows}}x").ok());
  EXPECT_FALSE(Template::Compile("x{{/rows}}").ok());
  EXPECT_FALSE(Template::Compile("{{#a}}{{#b}}{{/a}}{{/b}}").ok());
  EXPECT_FALSE(Template::Compile("{{unclosed").ok());
  EXPECT_FALSE(Template::Compile("x {{name}").ok());
  EXPECT_TRUE(Template::Compile("{{#a}}{{#b}}{{/b}}{{/a}}").ok());
  EXPECT_TRUE(Template::Compile("plain text, no tags").ok());
}

TEST(CompiledTemplateTest, UnknownSlotRendersEmpty) {
  Template tmpl = Template::Compile("[{{a}}|{{b}}]").value();
  EXPECT_EQ(tmpl.Slot("missing"), -1);
  EXPECT_EQ(tmpl.Slot({"no_section"}, "a"), -1);
  TemplateValues values = tmpl.NewValues();
  values.Set(tmpl.Slot("missing"), "ignored");
  values.Set(tmpl.Slot("a"), "A");
  EXPECT_EQ(Render(tmpl, values), "[A|]");
}

TEST(CompiledTemplateTest, UnknownOrEmptySectionRendersZeroTimes) {
  Template tmpl = Template::Compile("x{{#rows}}never{{/rows}}y").value();
  EXPECT_EQ(tmpl.Section("nope"), -1);
  TemplateValues values = tmpl.NewValues();
  EXPECT_EQ(Render(tmpl, values), "xy");
  values.SetRows(tmpl.Section("nope"), 3, [](size_t, TemplateValues*) {
    ADD_FAILURE() << "a section the template lacks is never filled";
  });
  values.SetRows(tmpl.Section("rows"), 0, [](size_t, TemplateValues*) {
    ADD_FAILURE() << "a section over 0 rows is never filled";
  });
  EXPECT_EQ(Render(tmpl, values), "xy");
}

TEST(CompiledTemplateTest, RawAndEscapedSlots) {
  Template tmpl = Template::Compile("{{v}}|{{&v}}").value();
  TemplateValues values = tmpl.NewValues();
  values.Set(tmpl.Slot("v"), "<a href=\"x\">&{{b}}</a>");
  EXPECT_EQ(Render(tmpl, values),
            "&lt;a href=&quot;x&quot;&gt;&amp;{{b}}&lt;/a&gt;|"
            "<a href=\"x\">&{{b}}</a>");
}

TEST(CompiledTemplateTest, NumbersRenderLikeToStringAndPrintf) {
  Template tmpl = Template::Compile("{{i}} {{f}}").value();
  for (int64_t n : {int64_t{0}, int64_t{-42}, int64_t{2000000007},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    for (double real : {0.0, -0.05, 1234.5678, 1e300}) {
      TemplateValues values = tmpl.NewValues();
      values.Set(tmpl.Slot("i"), n);
      values.SetFixed(tmpl.Slot("f"), real, 2);
      EXPECT_EQ(Render(tmpl, values),
                std::to_string(n) + " " + StrFormat("%.2f", real));
    }
  }
}

// Each section resolves names in its own rows, never in the enclosing
// scope, and a row starts with every slot empty.
TEST(CompiledTemplateTest, NestedSections) {
  Template tmpl =
      Template::Compile(
          "{{id}}/{{#hles}}H{{id}}:{{#anas}}[{{a}}{{id}}]{{/anas}};{{/hles}}")
          .value();
  int hles = tmpl.Section("hles");
  int id = tmpl.Slot({"hles"}, "id");
  int anas = tmpl.Section({"hles"}, "anas");
  int a = tmpl.Slot({"hles", "anas"}, "a");
  ASSERT_GE(hles, 0);
  ASSERT_GE(id, 0);
  ASSERT_GE(anas, 0);
  ASSERT_GE(a, 0);
  const std::vector<std::vector<std::string>> rows = {{"x", "y"}, {}, {"z"}};
  TemplateValues values = tmpl.NewValues();
  values.Set(tmpl.Slot("id"), "top");
  values.SetRows(hles, rows.size(), [&](size_t i, TemplateValues* hle) {
    if (i != 1) hle->Set(id, static_cast<int64_t>(i + 1));
    hle->SetRows(anas, rows[i].size(), [&, i](size_t j, TemplateValues* ana) {
      ana->Set(a, rows[i][j]);
    });
  });
  EXPECT_EQ(Render(tmpl, values), "top/H1:[x][y];H:;H3:[z];");
}

TEST(CompiledTemplateTest, RenderAppendsAndRepeats) {
  Template tmpl = Template::Compile("<{{v}}>").value();
  TemplateValues values = tmpl.NewValues();
  values.Set(tmpl.Slot("v"), "1");
  std::string out = "pre";
  tmpl.Render(values, &out);
  tmpl.Render(values, &out);
  EXPECT_EQ(out, "pre<1><1>");
}

class WebStackTest : public ::testing::Test {
 protected:
  WebStackTest() : stack_(/*seed=*/5) {}

  std::string LoginCookie(const std::string& user,
                          const std::string& password) {
    HttpRequest login = MakeRequest("/login?user=" + user +
                                    "&password=" + password);
    HttpResponse response = stack_.web_server->Dispatch(login);
    EXPECT_EQ(response.status_code, 200);
    return response.set_cookies.count("hedc_session") > 0
               ? response.set_cookies.at("hedc_session")
               : "";
  }

  testing::HedcStack stack_;
};

TEST_F(WebStackTest, LoginIssuesCookieAndRejectsBadPassword) {
  EXPECT_FALSE(LoginCookie("alice", "pw-a").empty());
  HttpRequest bad = MakeRequest("/login?user=alice&password=nope");
  EXPECT_EQ(stack_.web_server->Dispatch(bad).status_code, 403);
}

// Reads one full HTTP response (headers + Content-Length body).
std::string ReadHttpResponse(net::TcpSocket& socket) {
  std::string response;
  while (response.find("\r\n\r\n") == std::string::npos) {
    uint8_t byte;
    if (!socket.RecvAll(&byte, 1).ok()) return response;
    response.push_back(static_cast<char>(byte));
  }
  size_t body_start = response.find("\r\n\r\n") + 4;
  size_t length = 0;
  size_t pos = response.find("Content-Length: ");
  if (pos != std::string::npos) {
    length = std::strtoull(response.c_str() + pos + 16, nullptr, 10);
  }
  while (response.size() - body_start < length) {
    uint8_t byte;
    if (!socket.RecvAll(&byte, 1).ok()) return response;
    response.push_back(static_cast<char>(byte));
  }
  return response;
}

// The real web tier served over a socket: HttpTcpServer adapts
// WebServer::Dispatch onto the reactor (DESIGN.md §4i), either its own or
// one shared with other listeners (Options::shared_reactor), so the same
// raw-HTTP login + catalog flow must work on both.
TEST_F(WebStackTest, FullStackServesOverBothTcpEngines) {
  std::string cookie = LoginCookie("alice", "pw-a");
  ASSERT_FALSE(cookie.empty());
  net::Reactor shared;
  ASSERT_TRUE(shared.Start().ok());
  for (net::Reactor* reactor : {static_cast<net::Reactor*>(nullptr), &shared}) {
    SCOPED_TRACE(reactor == nullptr ? "own reactor" : "shared reactor");
    web::HttpTcpServer::Options options;
    options.shared_reactor = reactor;
    web::HttpTcpServer http(
        [&](const HttpRequest& request) {
          return stack_.web_server->Dispatch(request);
        },
        nullptr, options);
    ASSERT_TRUE(http.Start().ok());

    auto connected = net::TcpConnect("127.0.0.1", http.port());
    ASSERT_TRUE(connected.ok());
    net::TcpSocket socket = std::move(connected).value();
    // Two requests on one keep-alive connection.
    for (int i = 0; i < 2; ++i) {
      std::string request =
          "GET /catalog?name=standard HTTP/1.1\r\nHost: hedc\r\n"
          "Cookie: hedc_session=" + cookie + "\r\n\r\n";
      ASSERT_TRUE(socket
                      .SendAll(reinterpret_cast<const uint8_t*>(
                                   request.data()),
                               request.size())
                      .ok());
      std::string response = ReadHttpResponse(socket);
      EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
      for (int64_t hle_id : stack_.hle_ids) {
        EXPECT_NE(
            response.find("/hle?id=" + std::to_string(hle_id)),
            std::string::npos);
      }
    }
    http.Stop();
  }
}

// Two loops run WebServer::Dispatch concurrently; the per-path and
// per-status counters, whose handles Dispatch resolves once, must still
// count every request exactly.
TEST_F(WebStackTest, ConcurrentLoopsCountRequestsAndStatusesExactly) {
  MetricsRegistry* metrics = MetricsRegistry::Default();
  auto value = [metrics](const std::string& name) {
    return metrics->GetCounter(name)->Value();
  };
  const int64_t view_before = value("web.requests/view");
  const int64_t ok_before = value("web.status.200");
  const int64_t bad_before = value("web.status.400");
  const int64_t missing_before = value("web.status.404");

  web::HttpTcpServer::Options options;
  options.reactor.loops = 2;
  web::HttpTcpServer http(
      [&](const HttpRequest& request) {
        return stack_.web_server->Dispatch(request);
      },
      nullptr, options);
  ASSERT_TRUE(http.Start().ok());
  constexpr int kClients = 4;
  constexpr int kRounds = 40;
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto connected = net::TcpConnect("127.0.0.1", http.port());
      if (!connected.ok()) {
        wrong.fetch_add(kRounds);
        return;
      }
      net::TcpSocket socket = std::move(connected).value();
      const struct {
        const char* target;
        const char* status;
      } requests[] = {{"/view?unit=1&resolution=0", "HTTP/1.1 200"},
                      {"/view", "HTTP/1.1 400"},
                      {"/no-such-servlet", "HTTP/1.1 404"}};
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& r : requests) {
          std::string text = std::string("GET ") + r.target +
                             " HTTP/1.1\r\nHost: hedc\r\n\r\n";
          bool ok = socket
                        .SendAll(reinterpret_cast<const uint8_t*>(
                                     text.data()),
                                 text.size())
                        .ok() &&
                    ReadHttpResponse(socket).rfind(r.status, 0) == 0;
          if (!ok) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  http.Stop();

  EXPECT_EQ(wrong.load(), 0);
  const int64_t each = kClients * kRounds;
  EXPECT_EQ(value("web.requests/view") - view_before, 2 * each);
  EXPECT_EQ(value("web.status.200") - ok_before, each);
  EXPECT_EQ(value("web.status.400") - bad_before, each);
  EXPECT_EQ(value("web.status.404") - missing_before, each);
}

// --- progressive view delivery (/view) and approximate aggregates
// (/approx) --------------------------------------------------------------

int64_t ViewBuilds() {
  return MetricsRegistry::Default()->GetCounter("web.view.builds")->Value();
}

double JsonNumber(const std::string& body, const std::string& key) {
  size_t pos = body.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << body;
  if (pos == std::string::npos) return 0;
  return std::strtod(body.c_str() + pos + key.size() + 3, nullptr);
}

TEST_F(WebStackTest, ViewServletShipsDecodablePrefixes) {
  // Coarse-to-fine: each resolution is a byte prefix of the same stored
  // stream, so sizes grow monotonically and every prefix decodes.
  size_t prev_bytes = 0;
  for (int64_t resolution : {0, 2, 5, -1}) {
    HttpRequest request = MakeRequest(
        "/view?unit=1&resolution=" + std::to_string(resolution));
    HttpResponse response = stack_.web_server->Dispatch(request);
    ASSERT_EQ(response.status_code, 200) << "resolution " << resolution;
    EXPECT_EQ(response.content_type, "application/x-hedc-wavelet");
    ASSERT_FALSE(response.binary_body.empty());
    EXPECT_GT(response.binary_body.size(), prev_bytes);
    prev_bytes = resolution >= 0 ? response.binary_body.size() : prev_bytes;

    wavelet::PrefixInfo info;
    auto decoded = wavelet::DecodeSignalPrefix(response.binary_body, &info);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().size(), 1024u);
    if (resolution >= 0) {
      EXPECT_GE(info.levels_complete, static_cast<size_t>(resolution) + 1);
    } else {
      // Full fidelity: every retained coefficient arrived.
      EXPECT_EQ(info.coeffs_decoded, info.coeffs_total);
    }
  }

  // The energy HDU serves the sum aggregate; it is a distinct stream.
  HttpRequest energy = MakeRequest("/view?unit=1&resolution=0&kind=energy");
  EXPECT_EQ(stack_.web_server->Dispatch(energy).status_code, 200);

  // Bad requests.
  EXPECT_EQ(stack_.web_server->Dispatch(MakeRequest("/view")).status_code,
            400);
  EXPECT_EQ(stack_.web_server
                ->Dispatch(MakeRequest("/view?unit=1&kind=bogus"))
                .status_code,
            400);
  EXPECT_EQ(stack_.web_server
                ->Dispatch(MakeRequest("/view?unit=999999"))
                .status_code,
            404);
}

TEST_F(WebStackTest, ViewPrefixCacheHitSkipsRebuild) {
  HttpRequest coarse = MakeRequest("/view?unit=1&resolution=0");
  int64_t before = ViewBuilds();
  HttpResponse first = stack_.web_server->Dispatch(coarse);
  ASSERT_EQ(first.status_code, 200);
  EXPECT_EQ(ViewBuilds(), before + 1);  // cold: one real build

  // The coarse prefix is now cached under (view, resolution,
  // calibration_version): repeats never re-read or re-slice the stored
  // stream.
  for (int i = 0; i < 3; ++i) {
    HttpResponse repeat = stack_.web_server->Dispatch(coarse);
    ASSERT_EQ(repeat.status_code, 200);
    EXPECT_EQ(repeat.binary_body, first.binary_body);
  }
  EXPECT_EQ(ViewBuilds(), before + 1);

  // A different resolution is a different cache entry.
  ASSERT_EQ(stack_.web_server->Dispatch(MakeRequest(
                                            "/view?unit=1&resolution=3"))
                .status_code,
            200);
  EXPECT_EQ(ViewBuilds(), before + 2);
  ASSERT_EQ(stack_.web_server->Dispatch(MakeRequest(
                                            "/view?unit=1&resolution=3"))
                .status_code,
            200);
  EXPECT_EQ(ViewBuilds(), before + 2);
}

TEST_F(WebStackTest, RecalibrationInvalidatesEveryViewResolution) {
  // Warm two resolutions of unit 1 into the product cache.
  HttpRequest coarse = MakeRequest("/view?unit=1&resolution=0");
  HttpRequest fine = MakeRequest("/view?unit=1&resolution=4");
  HttpResponse coarse_v1 = stack_.web_server->Dispatch(coarse);
  ASSERT_EQ(coarse_v1.status_code, 200);
  ASSERT_EQ(stack_.web_server->Dispatch(fine).status_code, 200);
  int64_t warmed = ViewBuilds();
  ASSERT_EQ(stack_.web_server->Dispatch(coarse).status_code, 200);
  EXPECT_EQ(ViewBuilds(), warmed);  // both cached

  // Recalibrate: the lineage hook must drop every cached resolution of
  // the unit, and the view file itself is rebuilt from the recalibrated
  // photons.
  rhessi::CalibrationTable calibrations;
  rhessi::CalibrationVersion v2;
  v2.version = 2;
  for (double& g : v2.gain) g = 1.10;
  ASSERT_TRUE(calibrations.Register(v2).ok());
  auto recal = stack_.process->RecalibrateUnit(stack_.import_session, 1,
                                               calibrations, 2);
  ASSERT_TRUE(recal.ok()) << recal.status().ToString();

  HttpResponse coarse_v2 = stack_.web_server->Dispatch(coarse);
  ASSERT_EQ(coarse_v2.status_code, 200);
  HttpResponse fine_v2 = stack_.web_server->Dispatch(fine);
  ASSERT_EQ(fine_v2.status_code, 200);
  // Both resolutions were rebuilt (cache misses), not served stale.
  EXPECT_EQ(ViewBuilds(), warmed + 2);
  // Recalibration rescales energies, not arrival times, so the count
  // view is unchanged — but the energy view must change.
  HttpRequest energy = MakeRequest("/view?unit=1&kind=energy&resolution=-1");
  HttpResponse energy_v2 = stack_.web_server->Dispatch(energy);
  ASSERT_EQ(energy_v2.status_code, 200);
  auto decoded = wavelet::DecodeSignalPrefix(energy_v2.binary_body);
  ASSERT_TRUE(decoded.ok());
}

TEST_F(WebStackTest, ViewServedIdenticallyOverBothTcpEngines) {
  std::vector<std::string> bodies;
  net::Reactor shared;
  ASSERT_TRUE(shared.Start().ok());
  for (net::Reactor* reactor : {static_cast<net::Reactor*>(nullptr), &shared}) {
    SCOPED_TRACE(reactor == nullptr ? "own reactor" : "shared reactor");
    web::HttpTcpServer::Options options;
    options.shared_reactor = reactor;
    web::HttpTcpServer http(
        [&](const HttpRequest& request) {
          return stack_.web_server->Dispatch(request);
        },
        nullptr, options);
    ASSERT_TRUE(http.Start().ok());
    auto connected = net::TcpConnect("127.0.0.1", http.port());
    ASSERT_TRUE(connected.ok());
    net::TcpSocket socket = std::move(connected).value();
    std::string request =
        "GET /view?unit=1&resolution=1 HTTP/1.1\r\nHost: hedc\r\n\r\n";
    ASSERT_TRUE(socket
                    .SendAll(reinterpret_cast<const uint8_t*>(
                                 request.data()),
                             request.size())
                    .ok());
    std::string response = ReadHttpResponse(socket);
    ASSERT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
    bodies.push_back(response.substr(response.find("\r\n\r\n") + 4));
    http.Stop();
  }
  ASSERT_EQ(bodies.size(), 2u);
  // Byte-identical either way: the prefix is sliced from the same cached
  // stream regardless of which reactor carries it.
  EXPECT_EQ(bodies[0], bodies[1]);
  std::vector<uint8_t> raw(bodies[0].begin(), bodies[0].end());
  EXPECT_TRUE(wavelet::DecodeSignalPrefix(raw).ok());
}

TEST_F(WebStackTest, ApproxAggregatesStayWithinReportedBound) {
  // Ground truth straight from the stored raw unit.
  auto packed = stack_.data_manager->io().ReadItemFile(1);
  ASSERT_TRUE(packed.ok());
  auto unit = rhessi::RawDataUnit::Unpack(packed.value());
  ASSERT_TRUE(unit.ok());
  double domain_lo = unit.value().t_start;
  double domain_hi = unit.value().t_stop + 1e-6;
  double bin_width = (domain_hi - domain_lo) / 1024.0;
  // Bin-aligned subrange, so binning introduces no edge slack.
  double t_lo = domain_lo + 256 * bin_width;
  double t_hi = domain_lo + 768 * bin_width;
  double exact_count = 0, exact_kev = 0;
  for (const auto& p : unit.value().photons) {
    if (p.time_sec < t_lo || p.time_sec >= t_hi) continue;
    exact_count += 1.0;
    exact_kev += p.energy_kev;
  }
  ASSERT_GT(exact_count, 0);

  for (int64_t resolution : {2, 5, 10}) {
    HttpRequest request = MakeRequest(StrFormat(
        "/approx?unit=1&agg=count&t_lo=%.9f&t_hi=%.9f&resolution=%lld",
        t_lo, t_hi, static_cast<long long>(resolution)));
    HttpResponse response = stack_.web_server->Dispatch(request);
    ASSERT_EQ(response.status_code, 200) << response.body;
    EXPECT_NE(response.body.find("\"method\":\"wavelet-prefix\""),
              std::string::npos)
        << response.body;
    double estimate = JsonNumber(response.body, "estimate");
    double bound = JsonNumber(response.body, "error_bound");
    EXPECT_LE(std::abs(estimate - exact_count), bound + 1e-6)
        << "resolution " << resolution << ": " << response.body;
    // Fine resolutions give tight answers.
    if (resolution == 10) {
      EXPECT_NEAR(estimate, exact_count, 1.0);
    }
  }

  HttpRequest sum_request = MakeRequest(StrFormat(
      "/approx?unit=1&agg=sum&t_lo=%.9f&t_hi=%.9f&resolution=10", t_lo,
      t_hi));
  HttpResponse sum_response = stack_.web_server->Dispatch(sum_request);
  ASSERT_EQ(sum_response.status_code, 200);
  double sum_estimate = JsonNumber(sum_response.body, "estimate");
  double sum_bound = JsonNumber(sum_response.body, "error_bound");
  EXPECT_LE(std::abs(sum_estimate - exact_kev), sum_bound + 1e-3)
      << sum_response.body;

  // Inverted range is a client error.
  EXPECT_EQ(stack_.web_server
                ->Dispatch(MakeRequest("/approx?unit=1&t_lo=9&t_hi=3"))
                .status_code,
            400);
}

TEST_F(WebStackTest, ApproxFallsBackToReservoirAndHonorsDisableKnob) {
  // Destroy the stored view in place: the servlet must fall back to the
  // seeded reservoir scan of the raw photons instead of failing.
  auto name = stack_.mapper->Resolve(dm::ProcessLayer::ViewItemId(1),
                                     archive::NameType::kFilename);
  ASSERT_TRUE(name.ok());
  archive::Archive* arch = stack_.archives.Get(name.value().archive_id);
  ASSERT_NE(arch, nullptr);
  ASSERT_TRUE(
      arch->Write(name.value().rel_path, {0xde, 0xad, 0xbe, 0xef}).ok());

  auto packed = stack_.data_manager->io().ReadItemFile(1);
  ASSERT_TRUE(packed.ok());
  auto unit = rhessi::RawDataUnit::Unpack(packed.value());
  ASSERT_TRUE(unit.ok());
  double t_lo = unit.value().t_start;
  double t_hi = unit.value().t_start +
                (unit.value().t_stop - unit.value().t_start) * 0.4;
  double exact_count = 0;
  for (const auto& p : unit.value().photons) {
    if (p.time_sec >= t_lo && p.time_sec < t_hi) exact_count += 1.0;
  }

  HttpRequest request = MakeRequest(StrFormat(
      "/approx?unit=1&agg=count&t_lo=%.9f&t_hi=%.9f", t_lo, t_hi));
  HttpResponse response = stack_.web_server->Dispatch(request);
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"method\":\"reservoir\""),
            std::string::npos)
      << response.body;
  double estimate = JsonNumber(response.body, "estimate");
  double bound = JsonNumber(response.body, "error_bound");
  EXPECT_GT(bound, 0);
  // ~95% bars from a seeded reservoir: deterministic for this fixture.
  EXPECT_LE(std::abs(estimate - exact_count), bound) << response.body;

  // approx.enabled=false turns the endpoint off entirely.
  web::WebServer::DeliveryOptions off;
  off.approx_enabled = false;
  stack_.web_server->set_delivery_options(off);
  EXPECT_EQ(stack_.web_server->Dispatch(request).status_code, 403);
}

TEST_F(WebStackTest, CatalogPageListsEvents) {
  HttpRequest request = MakeRequest("/catalog?name=standard");
  HttpResponse response = stack_.web_server->Dispatch(request);
  ASSERT_EQ(response.status_code, 200);
  // Every loaded HLE appears as a link.
  for (int64_t hle_id : stack_.hle_ids) {
    EXPECT_NE(response.body.find("/hle?id=" + std::to_string(hle_id)),
              std::string::npos);
  }
}

TEST_F(WebStackTest, ErrorPagesEscapeRequestText) {
  HttpResponse response = stack_.web_server->Dispatch(
      MakeRequest("/catalog?name=<script>x</script>"));
  ASSERT_EQ(response.status_code, 404);
  EXPECT_NE(response.body.find("&lt;script&gt;x&lt;/script&gt;"),
            std::string::npos)
      << response.body;
  EXPECT_EQ(response.body.find("<script>"), std::string::npos);
}

TEST_F(WebStackTest, ExploreImageLinkCarriesRange) {
  HttpResponse response = stack_.web_server->Dispatch(
      MakeRequest("/explore?t_lo=12.5&t_hi=3600"));
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("/explore?format=image&t_lo=12.5&t_hi=3600'"),
            std::string::npos)
      << response.body;
}

TEST_F(WebStackTest, HlePageShowsEventDetails) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  HttpRequest request = MakeRequest(
      "/hle?id=" + std::to_string(stack_.hle_ids[0]));
  HttpResponse response = stack_.web_server->Dispatch(request);
  ASSERT_EQ(response.status_code, 200);
  EXPECT_NE(response.body.find("HLE " + std::to_string(stack_.hle_ids[0])),
            std::string::npos);
  EXPECT_NE(response.body.find("peak rate"), std::string::npos);
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// The page's analysis count is scoped like its analysis list: another
// user's private analysis is indistinguishable from absent (§5.3).
TEST_F(WebStackTest, HlePageCountsOnlyVisibleAnalyses) {
  dm::UserProfile super_user;
  super_user.is_super = true;
  ASSERT_TRUE(
      stack_.data_manager->users().CreateUser("root", "pw-r", super_user)
          .ok());
  dm::Session alice = stack_.Login("alice", "pw-a", "10.0.0.1");
  dm::HleRecord hle;
  hle.event_type = "flare";
  hle.is_public = true;
  int64_t hle_id =
      stack_.data_manager->semantics().CreateHle(alice, hle).value();
  dm::AnaRecord ana;
  ana.hle_id = hle_id;
  ana.routine = "histogram";
  ana.is_public = false;
  ASSERT_TRUE(stack_.data_manager->semantics().CreateAna(alice, ana).ok());
  ana.routine = "lightcurve";
  ana.is_public = true;
  ASSERT_TRUE(stack_.data_manager->semantics().CreateAna(alice, ana).ok());

  std::string url = "/hle?id=" + std::to_string(hle_id);
  auto page_as = [&](const std::string& user, const std::string& password) {
    return stack_.web_server->Dispatch(
        MakeRequest(url, "10.0.1.1", LoginCookie(user, password)));
  };
  HttpResponse bob = page_as("bob", "pw-b");
  ASSERT_EQ(bob.status_code, 200);
  EXPECT_NE(bob.body.find("<p>1 analyses,"), std::string::npos) << bob.body;
  EXPECT_EQ(CountOccurrences(bob.body, "<div class='ana'>"), 1u);
  EXPECT_EQ(bob.body.find("histogram"), std::string::npos);
  for (const auto& [user, password] :
       {std::pair<std::string, std::string>{"alice", "pw-a"},
        {"root", "pw-r"}}) {
    HttpResponse page = page_as(user, password);
    ASSERT_EQ(page.status_code, 200) << user;
    EXPECT_NE(page.body.find("<p>2 analyses,"), std::string::npos)
        << user << ": " << page.body;
    EXPECT_EQ(CountOccurrences(page.body, "<div class='ana'>"), 2u) << user;
  }
}

// The page's catalog-entry count is scoped like catalog listings: an
// entry in another user's private catalog is indistinguishable from
// absent (§5.3).
TEST_F(WebStackTest, HlePageCountsOnlyVisibleCatalogEntries) {
  dm::UserProfile super_user;
  super_user.is_super = true;
  ASSERT_TRUE(
      stack_.data_manager->users().CreateUser("root", "pw-r", super_user)
          .ok());
  dm::Session alice = stack_.Login("alice", "pw-a", "10.0.0.1");
  dm::SemanticLayer& semantics = stack_.data_manager->semantics();
  dm::HleRecord hle;
  hle.event_type = "flare";
  hle.is_public = true;
  int64_t hle_id = semantics.CreateHle(alice, hle).value();
  for (bool is_public : {true, false}) {
    Result<int64_t> catalog = semantics.CreateCatalog(
        alice, is_public ? "alice-shared" : "alice-private", "", is_public);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    ASSERT_TRUE(semantics.AddToCatalog(alice, catalog.value(), hle_id).ok());
  }

  std::string url = "/hle?id=" + std::to_string(hle_id);
  auto page_as = [&](const std::string& user, const std::string& password) {
    return stack_.web_server->Dispatch(
        MakeRequest(url, "10.0.1.1", LoginCookie(user, password)));
  };
  HttpResponse bob = page_as("bob", "pw-b");
  ASSERT_EQ(bob.status_code, 200);
  EXPECT_NE(bob.body.find(", 1 catalog entries</p>"), std::string::npos)
      << bob.body;
  for (const auto& [user, password] :
       {std::pair<std::string, std::string>{"alice", "pw-a"},
        {"root", "pw-r"}}) {
    HttpResponse page = page_as(user, password);
    ASSERT_EQ(page.status_code, 200) << user;
    EXPECT_NE(page.body.find(", 2 catalog entries</p>"), std::string::npos)
        << user << ": " << page.body;
  }
}

TEST_F(WebStackTest, MissingPagesAre404) {
  EXPECT_EQ(stack_.web_server->Dispatch(MakeRequest("/hle?id=99999"))
                .status_code,
            404);
  EXPECT_EQ(stack_.web_server->Dispatch(MakeRequest("/nope")).status_code,
            404);
  EXPECT_EQ(stack_.web_server->Dispatch(MakeRequest("/hle?id=abc"))
                .status_code,
            400);
}

TEST_F(WebStackTest, AnalyzeRequiresRights) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  std::string url = "/analyze?hle_id=" + std::to_string(stack_.hle_ids[0]) +
                    "&routine=lightcurve&bin_sec=2";
  // Anonymous: forbidden.
  EXPECT_EQ(stack_.web_server->Dispatch(MakeRequest(url)).status_code, 403);
  // bob (browse-only): forbidden.
  HttpRequest as_bob = MakeRequest(url, "10.0.0.2",
                                   LoginCookie("bob", "pw-b"));
  EXPECT_EQ(stack_.web_server->Dispatch(as_bob).status_code, 403);
}

TEST_F(WebStackTest, AnalyzeRunsAndStoresResult) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  std::string cookie = LoginCookie("alice", "pw-a");
  std::string url = "/analyze?hle_id=" + std::to_string(stack_.hle_ids[0]) +
                    "&routine=lightcurve&bin_sec=2";
  HttpRequest request = MakeRequest(url, "10.0.0.1", cookie);
  HttpResponse response = stack_.web_server->Dispatch(request);
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("/ana?id="), std::string::npos);

  // Resubmitting the identical analysis offers the precomputed result
  // (§3.5) instead of recomputing.
  HttpResponse again = stack_.web_server->Dispatch(request);
  ASSERT_EQ(again.status_code, 200);
  EXPECT_NE(again.body.find("already available"), std::string::npos);
}

TEST_F(WebStackTest, AnaPageAndImageServed) {
  std::string cookie = LoginCookie("alice", "pw-a");
  std::string url = "/analyze?hle_id=" + std::to_string(stack_.hle_ids[0]) +
                    "&routine=histogram&bins=16";
  HttpResponse submit =
      stack_.web_server->Dispatch(MakeRequest(url, "10.0.0.1", cookie));
  ASSERT_EQ(submit.status_code, 200) << submit.body;
  // Extract the ana id from the response.
  size_t pos = submit.body.find("/ana?id=");
  ASSERT_NE(pos, std::string::npos);
  std::string id_str = submit.body.substr(pos + 8);
  id_str = id_str.substr(0, id_str.find('\''));
  HttpResponse ana_page = stack_.web_server->Dispatch(
      MakeRequest("/ana?id=" + id_str, "10.0.0.1", cookie));
  ASSERT_EQ(ana_page.status_code, 200) << ana_page.body;
  EXPECT_NE(ana_page.body.find("histogram"), std::string::npos);

  // Image bytes are served through the name-mapped archive.
  int64_t ana_id = 0;
  ASSERT_TRUE(ParseInt64(id_str, &ana_id));
  HttpResponse image = stack_.web_server->Dispatch(MakeRequest(
      "/image?item=" + std::to_string(2000000000 + ana_id)));
  ASSERT_EQ(image.status_code, 200);
  EXPECT_GT(image.binary_body.size(), 0u);
  EXPECT_EQ(image.content_type, "image/gif");
}

TEST_F(WebStackTest, LogoutRevokesTokenAndSessions) {
  std::string cookie = LoginCookie("alice", "pw-a");
  ASSERT_FALSE(cookie.empty());
  size_t cached = stack_.data_manager->sessions().CacheSize();
  // Browse once to materialize a session under this cookie.
  stack_.web_server->Dispatch(
      MakeRequest("/catalog?name=standard", "10.0.0.1", cookie));
  EXPECT_GE(stack_.data_manager->sessions().CacheSize(), cached);

  HttpResponse out = stack_.web_server->Dispatch(
      MakeRequest("/logout", "10.0.0.1", cookie));
  EXPECT_EQ(out.status_code, 200);
  // The token no longer resolves: analyze is forbidden again.
  std::string url = "/analyze?hle_id=" +
                    std::to_string(stack_.hle_ids[0]) +
                    "&routine=lightcurve";
  EXPECT_EQ(stack_.web_server->Dispatch(
                MakeRequest(url, "10.0.0.1", cookie)).status_code,
            403);
}

// The cluster dispatch seam: a registered node router picks the DM node a
// request executes on; returning nullptr falls back to the default
// redirection path.
TEST(WebClusterDispatchTest, NodeRouterPicksServingNode) {
  cluster::ClusterFixtureOptions fixture_options;
  fixture_options.nodes = 2;
  cluster::ClusterFixture fixture(fixture_options);
  fixture.Start();
  // "alice" exists only on node 1, so a successful login proves which
  // node authenticated the request.
  ASSERT_TRUE(fixture.runner()
                  .node(1)
                  ->dm()
                  ->users()
                  .CreateUser("alice", "pw", dm::UserProfile{})
                  .ok());

  WebServer web(fixture.runner().node(0)->dm(), nullptr);
  ASSERT_TRUE(web.RegisterStandardServlets().ok());
  HttpRequest login = MakeRequest("/login?user=alice&password=pw", "10.0.0.2");

  // Without a router the default node (0) serves, where alice is unknown.
  EXPECT_EQ(web.Dispatch(login).status_code, 403);

  cluster::ClusterRunner* runner = &fixture.runner();
  web.set_node_router(
      [runner](const HttpRequest& request) -> dm::DataManager* {
        if (request.client_ip != "10.0.0.2") return nullptr;
        return runner->node(1)->dm();
      });
  EXPECT_EQ(web.Dispatch(login).status_code, 200);
  // Requests outside the routed set still fall back to the default path.
  EXPECT_EQ(web.Dispatch(
                    MakeRequest("/login?user=alice&password=pw", "10.0.0.1"))
                .status_code,
            403);
}

// Production wiring: RouteInProcess keyed by the session cookie (client
// ip for anonymous requests). Repeat requests with one key stick to a
// single node.
TEST(WebClusterDispatchTest, RoutedDispatchSticksPerSessionKey) {
  cluster::ClusterFixtureOptions fixture_options;
  fixture_options.nodes = 2;
  cluster::ClusterFixture fixture(fixture_options);
  fixture.Start();
  cluster::ClusterRunner* runner = &fixture.runner();

  WebServer web(runner->node(0)->dm(), nullptr);
  ASSERT_TRUE(web.RegisterStandardServlets().ok());
  web.set_node_router(
      [runner](const HttpRequest& request) -> dm::DataManager* {
        std::string key = request.GetCookie("hedc_session");
        if (key.empty()) key = request.client_ip;
        auto routed = runner->RouteInProcess(key);
        return routed.ok() ? routed.value() : nullptr;
      });

  int64_t before0 = runner->node(0)->dm()->requests_handled();
  int64_t before1 = runner->node(1)->dm()->requests_handled();
  for (int i = 0; i < 8; ++i) {
    web.Dispatch(MakeRequest("/catalog?name=standard", "10.9.9.9"));
  }
  int64_t served0 = runner->node(0)->dm()->requests_handled() - before0;
  int64_t served1 = runner->node(1)->dm()->requests_handled() - before1;
  EXPECT_EQ(served0 + served1, 8);
  EXPECT_TRUE(served0 == 0 || served1 == 0) << "session key did not stick";
}

// A web server built over a recovered database continues the usage_stats
// ids of the previous process instead of colliding with them.
TEST(WebUsageStatsTest, UsageRowsAccumulateAcrossRestarts) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hedc_usage_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::string wal = (dir / "db.wal").string();
  Counter* failed =
      MetricsRegistry::Default()->GetCounter("web.usage_stats.failed");
  int64_t failed_before = failed->Value();
  // One process lifetime: recover, serve `requests`, count usage rows.
  auto serve = [&wal](int requests) -> int64_t {
    VirtualClock clock;
    db::Database db;
    EXPECT_TRUE(db.OpenWal(wal).ok());
    EXPECT_TRUE(dm::CreateFullSchema(&db).ok());
    archive::ArchiveManager archives;
    Config mapper_config;
    mapper_config.Set("root.filename", "/hedc");
    archive::NameMapper mapper(&db, mapper_config);
    EXPECT_TRUE(mapper.Init().ok());
    dm::DataManager data_manager("dm0", &db, &archives, &mapper, &clock,
                                 dm::DataManager::Options{});
    WebServer web(&data_manager, nullptr);
    EXPECT_TRUE(web.RegisterStandardServlets().ok());
    for (int i = 0; i < requests; ++i) {
      web.Dispatch(MakeRequest("/catalog?name=standard"));
    }
    return db.Execute("SELECT COUNT(*) FROM usage_stats")
        .value()
        .rows[0][0]
        .AsInt();
  };
  EXPECT_EQ(serve(5), 5);
  EXPECT_EQ(serve(4), 9);
  EXPECT_EQ(serve(3), 12);
  EXPECT_EQ(failed->Value(), failed_before);
  std::filesystem::remove_all(dir);
}



// Golden pages: every templated page, rendered from fixed data, must match
// tests/data/web_golden/<name>.html byte for byte. The files were captured
// from the map-based interpreter the compiled templates replaced; run with
// HEDC_UPDATE_GOLDEN=1 to rewrite them after an intended page change.
class WebGoldenTest : public WebStackTest {
 protected:
  void SetUp() override {
    dm::Session alice = stack_.Login("alice", "pw-a", "10.0.0.1");
    dm::SemanticLayer& semantics = stack_.data_manager->semantics();
    auto make_hle = [&](const std::string& event_type, int64_t photons) {
      dm::HleRecord hle;
      hle.event_type = event_type;
      hle.is_public = true;
      hle.t_start = 1234.5678;
      hle.t_end = 1299.125;
      hle.e_min = 3;
      hle.e_max = 250.25;
      hle.peak_rate = 4321.06;
      hle.photon_count = photons;
      hle.calibration_version = 2;
      return semantics.CreateHle(alice, hle).value();
    };
    auto make_ana = [&](int64_t hle_id, const std::string& routine,
                        const std::string& parameters) {
      dm::AnaRecord ana;
      ana.hle_id = hle_id;
      ana.routine = routine;
      ana.parameters = parameters;
      ana.status = "done";
      ana.log_excerpt = "ok <" + routine + ">";
      ana.is_public = true;
      return semantics.CreateAna(alice, ana).value();
    };
    empty_hle_ = make_hle("quiet", -42);
    escaped_hle_ = make_hle("flare<\"x\"&y>", 9876543210);
    escaped_ana_ = make_ana(escaped_hle_, "a<b&\"c\">", "x=\"1\"&y<2>&z");
    busy_hle_ = make_hle("flare", 123456);
    const char* routines[] = {"lightcurve", "histogram", "spectrum"};
    for (int i = 0; i < 80; ++i) {
      make_ana(busy_hle_, routines[i % 3],
               StrFormat("bin_sec=%d;e_lo=%d", i % 7 + 1, 3 * i));
    }
    int64_t catalog =
        semantics.CreateCatalog(alice, "a<b\"c\"", "", true).value();
    for (int64_t hle_id : {empty_hle_, escaped_hle_, busy_hle_}) {
      ASSERT_TRUE(semantics.AddToCatalog(alice, catalog, hle_id).ok());
    }
    dm::PredefinedQueryService queries(stack_.data_manager->database());
    ASSERT_TRUE(queries
                    .Register("hles<\"x\">", "",
                              "SELECT hle_id, event_type, t_start FROM hle "
                              "WHERE photon_count < ? ORDER BY hle_id")
                    .ok());
  }

  HttpResponse Get(const std::string& url, const std::string& cookie = "") {
    return stack_.web_server->Dispatch(MakeRequest(url, "10.0.0.1", cookie));
  }

  static std::string Url(const std::string& base, int64_t id) {
    return base + std::to_string(id);
  }

  void ExpectGolden(const std::string& name, const HttpResponse& response) {
    ASSERT_EQ(response.status_code, 200) << name << ": " << response.body;
    std::string path =
        std::string(HEDC_TEST_DATA_DIR) + "/web_golden/" + name + ".html";
    if (std::getenv("HEDC_UPDATE_GOLDEN") != nullptr) {
      std::ofstream out(path, std::ios::binary);
      out << response.body;
      ASSERT_TRUE(out.good()) << path;
      return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing " << path;
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(response.body, expected.str()) << name;
  }

  int64_t empty_hle_ = 0;
  int64_t escaped_hle_ = 0;
  int64_t escaped_ana_ = 0;
  int64_t busy_hle_ = 0;
};

TEST_F(WebGoldenTest, LoginAndLogoutPages) {
  HttpResponse login = Get("/login?user=alice&password=pw-a");
  ExpectGolden("login", login);
  ExpectGolden("logout",
               Get("/logout", login.set_cookies.at("hedc_session")));
}

TEST_F(WebGoldenTest, CatalogPages) {
  ExpectGolden("catalog", Get("/catalog?name=standard"));
  ExpectGolden("catalog_escaped", Get("/catalog?name=a<b\"c\""));
}

TEST_F(WebGoldenTest, HlePages) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  ExpectGolden("hle_loaded", Get(Url("/hle?id=", stack_.hle_ids[0])));
  ExpectGolden("hle_0", Get(Url("/hle?id=", empty_hle_)));
  ExpectGolden("hle_1_escaped", Get(Url("/hle?id=", escaped_hle_)));
  ExpectGolden("hle_80", Get(Url("/hle?id=", busy_hle_)));
  ExpectGolden("ana_escaped", Get(Url("/ana?id=", escaped_ana_)));
}

TEST_F(WebGoldenTest, ExploreAndQueryPages) {
  ExpectGolden("explore", Get("/explore?bins=8"));
  ExpectGolden("query", Get("/query?name=hles<\"x\">&q0=1000000",
                            LoginCookie("alice", "pw-a")));
}

TEST_F(WebGoldenTest, AnalyzeReplyPages) {
  std::string cookie = LoginCookie("alice", "pw-a");
  std::string url = Url("/analyze?hle_id=", stack_.hle_ids[0]) +
                    "&routine=lightcurve&bin_sec=2";
  ExpectGolden("analyze_complete", Get(url, cookie));
  ExpectGolden("analyze_exists", Get(url, cookie));
}

// The metrics table holds every metric of the process-wide registry, so
// which rows it has depends on what ran before in the process, and their
// values on timing. The golden copy keeps the page around it; each row
// must still have the name | kind | value shape.
TEST_F(WebGoldenTest, StatusPage) {
  ASSERT_EQ(Get("/catalog?name=standard").status_code, 200);
  HttpResponse status = Get("/status", LoginCookie("import", "pw-i"));
  const std::string open = "<h3>Metrics</h3><table>";
  size_t rows_begin = status.body.find(open);
  ASSERT_NE(rows_begin, std::string::npos) << status.body;
  rows_begin += open.size();
  size_t rows_end = status.body.find("</table>", rows_begin);
  ASSERT_NE(rows_end, std::string::npos);
  std::string rows = status.body.substr(rows_begin, rows_end - rows_begin);
  // Each row is <tr><td>NAME</td><td>KIND</td><td>VALUE</td></tr>, with
  // VALUE printed as %.1f.
  size_t n = 0;
  for (size_t pos = 0; pos < rows.size(); ++n) {
    size_t end = rows.find("</td></tr>", pos);
    ASSERT_NE(end, std::string::npos) << rows.substr(pos);
    std::string row = rows.substr(pos, end - pos);
    pos = end + 10;
    ASSERT_EQ(row.rfind("<tr><td>", 0), 0u) << row;
    size_t kind = row.find("</td><td>");
    ASSERT_NE(kind, std::string::npos) << row;
    EXPECT_GT(kind, 8u) << row;
    size_t value = row.find("</td><td>", kind + 9);
    ASSERT_NE(value, std::string::npos) << row;
    std::string number = row.substr(value + 9);
    double parsed = 0;
    EXPECT_TRUE(ParseDouble(number, &parsed)) << row;
    EXPECT_EQ(number, StrFormat("%.1f", parsed)) << row;
  }
  EXPECT_GT(n, 0u);
  status.body.replace(rows_begin, rows_end - rows_begin, "<!-- rows -->");
  ExpectGolden("status", status);
}

}  // namespace
}  // namespace hedc::web
