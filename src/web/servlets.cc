// Standard servlets: login/logout, catalog browsing, HLE pages, analysis
// pages, image download, analysis submission, progressive view delivery,
// approximate aggregates.
#include <charconv>
#include <memory>
#include <string_view>
#include <utility>

#include "analysis/approx.h"
#include "analysis/product.h"
#include "analysis/routine.h"
#include "archive/fits.h"
#include "core/metrics.h"
#include "core/strings.h"
#include "dm/predefined_queries.h"
#include "dm/process_layer.h"
#include "rhessi/raw_unit.h"
#include "wavelet/codec.h"
#include "wavelet/views.h"
#include "web/web_server.h"

namespace hedc::web {

namespace {

// Page templates (static text + dynamic slots, §6.1). Every HTML page is
// the shared header, a page body and the shared footer, compiled once by
// RegisterStandardServlets; the header's {{title}} slot is every page's.
constexpr std::string_view kPageHeader =
    "<html><head><title>{{title}} - HEDC</title>"
    "<link rel='stylesheet' href='/static/hedc.css'></head><body>"
    "<img src='/static/logo.gif' alt='HEDC'>"
    "<h1>{{title}}</h1><div class='nav'><a href='/catalog?name=standard'>"
    "standard catalog</a></div>";

constexpr std::string_view kPageFooter =
    "<div class='footer'>RHESSI Experimental Data Center</div>"
    "</body></html>";

constexpr std::string_view kLoginBody = "<p>Logged in as {{user}}</p>";

constexpr std::string_view kLogoutBody = "<p>Logged out.</p>";

constexpr std::string_view kCatalogBody =
    "<p>{{events}} events</p><ul>{{#hles}}<li><a href='/hle?id={{hle_id}}'>"
    "HLE {{hle_id}}</a></li>{{/hles}}</ul>";

// The HLE header, then one analysis row per ANA.
constexpr std::string_view kHleBody =
    "<div class='hle'><h2>HLE {{hle_id}} ({{event_type}})</h2>"
    "<table><tr><td>time</td><td>{{t_start}} .. {{t_end}} s</td></tr>"
    "<tr><td>energy</td><td>{{e_min}} .. {{e_max}} keV</td></tr>"
    "<tr><td>peak rate</td><td>{{peak_rate}} /s</td></tr>"
    "<tr><td>photons</td><td>{{photon_count}}</td></tr>"
    "<tr><td>calibration</td><td>v{{calibration}}</td></tr></table>"
    "<p>{{analysis_count}} analyses, {{catalog_count}} catalog entries</p>"
    "{{#analyses}}<div class='ana'><a href='/ana?id={{ana_id}}'>"
    "{{routine}}</a> <span class='params'>{{parameters}}</span> "
    "<img src='/image?item={{image_item}}' width='128'></div>{{/analyses}}";

constexpr std::string_view kAnaBody =
    "<div class='ana-detail'><h2>{{routine}} on HLE {{hle_id}}</h2>"
    "<p>parameters: {{parameters}}</p><p>status: {{status}}</p>"
    "<img src='/image?item={{image_item}}'>"
    "<pre class='log'>{{log_excerpt}}</pre>"
    "<p><a href='/hle?id={{hle_id}}'>back to HLE</a></p></div>";

constexpr std::string_view kAnalysisExistsBody =
    "<p>Identical analysis already available: "
    "<a href='/ana?id={{ana_id}}'>ANA {{ana_id}}</a></p>";

constexpr std::string_view kAnalysisDoneBody =
    "<p>{{routine}} finished; result stored as "
    "<a href='/ana?id={{ana_id}}'>ANA {{ana_id}}</a></p>";

constexpr std::string_view kExploreBody =
    "<p>{{events}} events, {{clusters}} clusters</p>"
    "<img src='/explore?format=image&t_lo={{t_lo}}&t_hi={{t_hi}}'>"
    "<table><tr><th>time</th><th>energy</th><th>events</th></tr>"
    "{{#extents}}<tr><td>{{t_lo}}..{{t_hi}} s</td>"
    "<td>{{e_lo}}..{{e_hi}}</td><td>{{n}}</td></tr>{{/extents}}"
    "</table>";

constexpr std::string_view kQueryBody =
    "<p>{{row_count}} rows</p><pre>{{header}}\n"
    "{{#rows}}{{line}}\n{{/rows}}</pre>";

constexpr std::string_view kStatusBody =
    "<h2>Node {{node}} ({{requests}} requests)</h2>"
    "<h3>Archives</h3><ul>{{#archives}}<li>#{{id}} {{type}} "
    "{{root}}: {{online}}</li>{{/archives}}</ul>"
    "<h3>Usage</h3><ul>{{#usage}}<li>{{op}}: {{count}}</li>"
    "{{/usage}}</ul>"
    "<h3>Product cache</h3><p>{{cache_entries}} persisted "
    "entries</p>"
    "<h3>Metrics</h3><table>{{#metrics}}<tr><td>{{metric}}</td>"
    "<td>{{kind}}</td><td>{{value}}</td></tr>{{/metrics}}</table>";

Result<Template> CompilePage(std::string_view body) {
  std::string text(kPageHeader);
  text += body;
  text += kPageFooter;
  return Template::Compile(text);
}

// A compiled page and its title slot.
class Page {
 public:
  explicit Page(Template tmpl)
      : template_(std::move(tmpl)), title_(template_.Slot("title")) {}

  int Slot(std::string_view name) const { return template_.Slot(name); }
  int Slot(std::initializer_list<std::string_view> path,
           std::string_view name) const {
    return template_.Slot(path, name);
  }
  int Section(std::string_view name) const {
    return template_.Section(name);
  }

  // Values with the title set; `title` must outlive Render.
  TemplateValues NewValues(std::string_view title) const {
    TemplateValues values = template_.NewValues();
    values.Set(title_, title);
    return values;
  }
  HttpResponse Render(const TemplateValues& values) const {
    HttpResponse response;
    template_.Render(values, &response.body);
    return response;
  }

 private:
  Template template_;
  int title_;
};

// A result-set cell's text, viewed in place; a non-text cell reads empty.
std::string_view TextCell(const db::Value& cell) {
  return cell.type() == db::ValueType::kText ? std::string_view(cell.text())
                                             : std::string_view();
}

// `v` in fixed notation with the fewest digits ParseDouble reads back as
// `v` (an exponent's '+' would decode as a space in a query string).
std::string QueryDouble(double v) {
  char buf[512];  // holds any double in fixed notation
  auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed);
  (void)ec;
  return std::string(buf, end);
}

dm::Session BrowseSession(dm::DataManager* dm, WebServer* server,
                          const HttpRequest& request,
                          dm::SessionKind kind) {
  dm::UserProfile profile = server->ProfileFor(request);
  Result<dm::Session> session = dm->sessions().GetOrCreate(
      profile, request.client_ip, request.GetCookie("hedc_session"), kind);
  dm::Session out = session.ok() ? session.value() : dm::Session{};
  // Propagate the request's trace id through this per-request session
  // copy (the cached session stays untraced).
  out.trace_id = request.trace_id;
  return out;
}

class LoginServlet : public Servlet {
 public:
  explicit LoginServlet(Template page)
      : page_(std::move(page)), user_(page_.Slot("user")) {}

  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    std::string user = request.GetQuery("user");
    std::string password = request.GetQuery("password");
    if (user.empty()) return HttpResponse::BadRequest("user required");
    Result<dm::UserProfile> profile =
        dm->users().Authenticate(user, password);
    if (!profile.ok()) {
      return HttpResponse::Forbidden(profile.status().ToString());
    }
    TemplateValues values = page_.NewValues("Welcome");
    values.Set(user_, user);
    HttpResponse response = page_.Render(values);
    response.set_cookies["hedc_session"] = server->IssueToken(profile.value());
    return response;
  }

 private:
  const Page page_;
  const int user_;
};

class LogoutServlet : public Servlet {
 public:
  explicit LogoutServlet(Template page) : page_(std::move(page)) {}

  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    std::string token = request.GetCookie("hedc_session");
    server->RevokeToken(token);
    dm->sessions().Invalidate(request.client_ip, token);
    return page_.Render(page_.NewValues("Goodbye"));
  }

 private:
  const Page page_;
};

class CatalogServlet : public Servlet {
 public:
  explicit CatalogServlet(Template page)
      : page_(std::move(page)),
        events_(page_.Slot("events")),
        hles_(page_.Section("hles")),
        hle_id_(page_.Slot({"hles"}, "hle_id")) {}

  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    dm::Session session =
        BrowseSession(dm, server, request, dm::SessionKind::kCatalog);
    std::string name = request.GetQuery("name", "standard");
    Result<dm::CatalogRecord> catalog =
        dm->semantics().GetCatalogByName(session, name);
    if (!catalog.ok()) return HttpResponse::NotFound("catalog " + name);
    Result<std::vector<int64_t>> hles = dm->semantics().ListCatalogHles(
        session, catalog.value().catalog_id);
    if (!hles.ok()) return HttpResponse::NotFound(hles.status().ToString());
    const std::vector<int64_t>& ids = hles.value();
    std::string title = "Catalog " + name;
    TemplateValues values = page_.NewValues(title);
    values.Set(events_, static_cast<int64_t>(ids.size()));
    values.SetRows(hles_, ids.size(), [&](size_t i, TemplateValues* row) {
      row->Set(hle_id_, ids[i]);
    });
    return page_.Render(values);
  }

 private:
  const Page page_;
  const int events_, hles_, hle_id_;
};

// The §6.1 workload: HLE header/footer + one analysis template per ANA;
// ~8 DB queries per page (HLE fetch, analyses list, the analysis count,
// the HLE's catalog entries plus one visibility probe per entry,
// session/image lookups).
class HlePageServlet : public Servlet {
 public:
  explicit HlePageServlet(Template page)
      : page_(std::move(page)),
        hle_id_(page_.Slot("hle_id")),
        event_type_(page_.Slot("event_type")),
        t_start_(page_.Slot("t_start")),
        t_end_(page_.Slot("t_end")),
        e_min_(page_.Slot("e_min")),
        e_max_(page_.Slot("e_max")),
        peak_rate_(page_.Slot("peak_rate")),
        photon_count_(page_.Slot("photon_count")),
        calibration_(page_.Slot("calibration")),
        analysis_count_(page_.Slot("analysis_count")),
        catalog_count_(page_.Slot("catalog_count")),
        analyses_(page_.Section("analyses")),
        ana_id_(page_.Slot({"analyses"}, "ana_id")),
        routine_(page_.Slot({"analyses"}, "routine")),
        parameters_(page_.Slot({"analyses"}, "parameters")),
        image_item_(page_.Slot({"analyses"}, "image_item")) {}

  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    dm::Session session =
        BrowseSession(dm, server, request, dm::SessionKind::kHle);
    int64_t hle_id = 0;
    if (!ParseInt64(request.GetQuery("id"), &hle_id)) {
      return HttpResponse::BadRequest("id required");
    }
    Result<dm::HleRecord> hle = dm->semantics().GetHle(session, hle_id);
    if (!hle.ok()) {
      return HttpResponse::NotFound(StrFormat("HLE %lld",
                                              (long long)hle_id));
    }
    Result<std::vector<dm::AnaRecord>> analyses =
        dm->semantics().ListAnalyses(session, hle_id);
    if (!analyses.ok()) {
      return HttpResponse::NotFound(analyses.status().ToString());
    }
    // Counts (full workload shape: "two are count queries"), scoped like
    // the lists they summarize, so another user's private analyses and
    // private catalogs stay indistinguishable from absent (§5.3).
    dm::QuerySpec ana_count("ana");
    ana_count.CountOnly().Where("hle_id", dm::CondOp::kEq,
                                db::Value::Int(hle_id));
    if (!session.view_predicate.empty()) {
      ana_count.RawPredicate(session.view_predicate);
    }
    Result<db::ResultSet> n_ana = dm->io().Query(ana_count);
    Result<int64_t> n_catalog_entries =
        dm->semantics().CountVisibleCatalogEntries(session, hle_id);

    const dm::HleRecord& record = hle.value();
    std::string title = StrFormat("HLE %lld", (long long)hle_id);
    TemplateValues values = page_.NewValues(title);
    values.Set(hle_id_, record.hle_id);
    values.Set(event_type_, record.event_type);
    values.SetFixed(t_start_, record.t_start, 2);
    values.SetFixed(t_end_, record.t_end, 2);
    values.SetFixed(e_min_, record.e_min, 1);
    values.SetFixed(e_max_, record.e_max, 1);
    values.SetFixed(peak_rate_, record.peak_rate, 1);
    values.Set(photon_count_, record.photon_count);
    values.Set(calibration_, int64_t{record.calibration_version});
    values.Set(analysis_count_,
               n_ana.ok() ? n_ana.value().rows[0][0].AsInt() : 0);
    values.Set(catalog_count_,
               n_catalog_entries.ok() ? n_catalog_entries.value() : 0);
    const std::vector<dm::AnaRecord>& anas = analyses.value();
    values.SetRows(analyses_, anas.size(), [&](size_t i, TemplateValues* row) {
      const dm::AnaRecord& ana = anas[i];
      row->Set(ana_id_, ana.ana_id);
      row->Set(routine_, ana.routine);
      row->Set(parameters_, ana.parameters);
      row->Set(image_item_, 2000000000 + ana.ana_id);
    });
    return page_.Render(values);
  }

 private:
  const Page page_;
  const int hle_id_, event_type_, t_start_, t_end_, e_min_, e_max_,
      peak_rate_, photon_count_, calibration_, analysis_count_,
      catalog_count_;
  const int analyses_, ana_id_, routine_, parameters_, image_item_;
};

class AnaPageServlet : public Servlet {
 public:
  explicit AnaPageServlet(Template page)
      : page_(std::move(page)),
        routine_(page_.Slot("routine")),
        hle_id_(page_.Slot("hle_id")),
        parameters_(page_.Slot("parameters")),
        status_(page_.Slot("status")),
        image_item_(page_.Slot("image_item")),
        log_excerpt_(page_.Slot("log_excerpt")) {}

  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    dm::Session session =
        BrowseSession(dm, server, request, dm::SessionKind::kAnalysis);
    int64_t ana_id = 0;
    if (!ParseInt64(request.GetQuery("id"), &ana_id)) {
      return HttpResponse::BadRequest("id required");
    }
    Result<dm::AnaRecord> ana = dm->semantics().GetAna(session, ana_id);
    if (!ana.ok()) {
      return HttpResponse::NotFound(StrFormat("ANA %lld",
                                              (long long)ana_id));
    }
    const dm::AnaRecord& record = ana.value();
    std::string title = StrFormat("Analysis %lld", (long long)ana_id);
    TemplateValues values = page_.NewValues(title);
    values.Set(routine_, record.routine);
    values.Set(hle_id_, record.hle_id);
    values.Set(parameters_, record.parameters);
    values.Set(status_, record.status);
    values.Set(image_item_, 2000000000 + record.ana_id);
    values.Set(log_excerpt_, record.log_excerpt);
    return page_.Render(values);
  }

 private:
  const Page page_;
  const int routine_, hle_id_, parameters_, status_, image_item_,
      log_excerpt_;
};

class ImageServlet : public Servlet {
 public:
  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer*) override {
    int64_t item_id = 0;
    if (!ParseInt64(request.GetQuery("item"), &item_id)) {
      return HttpResponse::BadRequest("item required");
    }
    Result<std::vector<uint8_t>> bytes = dm->io().ReadItemFile(item_id);
    if (!bytes.ok()) {
      return HttpResponse::NotFound(StrFormat("image item %lld",
                                              (long long)item_id));
    }
    HttpResponse response;
    response.content_type = "image/gif";
    response.binary_body = std::move(bytes).value();
    return response;
  }
};

// Analysis submission: checks rights, reuses an existing identical
// analysis when present (§3.5), else drives the PL request workflow.
class AnalyzeServlet : public Servlet {
 public:
  AnalyzeServlet(Template exists_page, Template done_page)
      : exists_page_(std::move(exists_page)),
        done_page_(std::move(done_page)),
        exists_ana_id_(exists_page_.Slot("ana_id")),
        done_ana_id_(done_page_.Slot("ana_id")),
        done_routine_(done_page_.Slot("routine")) {}

  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    dm::Session session =
        BrowseSession(dm, server, request, dm::SessionKind::kAnalysis);
    if (!session.profile.can_analyze) {
      return HttpResponse::Forbidden("analysis rights required");
    }
    int64_t hle_id = 0;
    if (!ParseInt64(request.GetQuery("hle_id"), &hle_id)) {
      return HttpResponse::BadRequest("hle_id required");
    }
    std::string routine = request.GetQuery("routine", "lightcurve");
    Result<dm::HleRecord> hle = dm->semantics().GetHle(session, hle_id);
    if (!hle.ok()) {
      return HttpResponse::NotFound(StrFormat("HLE %lld",
                                              (long long)hle_id));
    }
    analysis::AnalysisParams params;
    for (const auto& [key, value] : request.query) {
      if (key != "hle_id" && key != "routine") params.Set(key, value);
    }
    // The analysis window is part of the request identity.
    params.SetDouble("t_start", hle.value().t_start);
    params.SetDouble("t_end", hle.value().t_end);

    // Overlap detection: offer the precomputed result.
    Result<std::optional<dm::AnaRecord>> existing =
        dm->semantics().FindExistingAnalysis(session, hle_id, routine,
                                             params.Canonical());
    if (existing.ok() && existing.value().has_value()) {
      TemplateValues values = exists_page_.NewValues("Analysis exists");
      values.Set(exists_ana_id_, existing.value()->ana_id);
      return exists_page_.Render(values);
    }

    if (server->frontend() == nullptr) {
      return HttpResponse::NotFound("processing logic not attached");
    }
    // Fetch the raw photons of the event's unit and window them.
    Result<std::vector<uint8_t>> packed =
        dm->io().ReadItemFile(hle.value().unit_id);
    if (!packed.ok()) {
      return HttpResponse::NotFound("raw unit unavailable: " +
                                    packed.status().ToString());
    }
    Result<rhessi::RawDataUnit> unit =
        rhessi::RawDataUnit::Unpack(packed.value());
    if (!unit.ok()) {
      return HttpResponse::NotFound(unit.status().ToString());
    }

    pl::ProcessingRequest processing;
    processing.trace_id = session.trace_id;
    processing.hle_id = hle_id;
    processing.routine = routine;
    processing.params = params;
    // Photon lineage for the derived-product cache: the event's raw unit
    // at its current calibration version.
    processing.input_units = {
        {hle.value().unit_id, unit.value().calibration_version}};
    // Pass only the HLE's window. The routines select the same window
    // from `params`, so cutting a time-sorted list changes no product.
    if (unit.value().time_sorted) {
      processing.photons =
          analysis::CutToTimeWindow(unit.value().photons, params);
    } else {
      processing.photons = std::move(unit.value().photons);
    }
    Result<int64_t> id = server->frontend()->Submit(std::move(processing));
    if (!id.ok()) return HttpResponse::NotFound(id.status().ToString());
    pl::RequestOutcome outcome = server->frontend()->Wait(id.value());
    if (outcome.state != pl::RequestState::kCommitted &&
        outcome.state != pl::RequestState::kDelivered) {
      return HttpResponse::NotFound("analysis failed: " +
                                    outcome.status.ToString());
    }
    TemplateValues values = done_page_.NewValues("Analysis complete");
    values.Set(done_routine_, routine);
    values.Set(done_ana_id_, outcome.committed_ana_id);
    return done_page_.Render(values);
  }

 private:
  const Page exists_page_, done_page_;
  const int exists_ana_id_, done_ana_id_, done_routine_;
};

// The "visual tools to graphically render the search space" (§1):
// density and extent plots over the visible HLEs, returned as rendered
// images (interactive database visualization, §6.3).
class ExploreServlet : public Servlet {
 public:
  explicit ExploreServlet(Template page)
      : page_(std::move(page)),
        events_(page_.Slot("events")),
        clusters_(page_.Slot("clusters")),
        range_lo_(page_.Slot("t_lo")),
        range_hi_(page_.Slot("t_hi")),
        extents_(page_.Section("extents")),
        t_lo_(page_.Slot({"extents"}, "t_lo")),
        t_hi_(page_.Slot({"extents"}, "t_hi")),
        e_lo_(page_.Slot({"extents"}, "e_lo")),
        e_hi_(page_.Slot({"extents"}, "e_hi")),
        n_(page_.Slot({"extents"}, "n")) {}

  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    dm::Session session =
        BrowseSession(dm, server, request, dm::SessionKind::kCatalog);
    double t_lo = 0, t_hi = 1e12;
    ParseDouble(request.GetQuery("t_lo", "0"), &t_lo);
    ParseDouble(request.GetQuery("t_hi", "1000000000000"), &t_hi);
    int64_t bins = 32;
    ParseInt64(request.GetQuery("bins", "32"), &bins);
    bins = std::clamp<int64_t>(bins, 4, 512);

    Result<std::vector<dm::HleRecord>> hles =
        dm->semantics().ListHles(session, t_lo, t_hi);
    if (!hles.ok()) return HttpResponse::NotFound(hles.status().ToString());
    std::vector<std::pair<double, double>> points;
    double max_energy = 1;
    double max_time = t_lo + 1;
    for (const dm::HleRecord& hle : hles.value()) {
      points.emplace_back(hle.t_start, hle.peak_energy);
      max_energy = std::max(max_energy, hle.peak_energy * 1.01);
      max_time = std::max(max_time, hle.t_start * 1.01);
    }
    double hi = std::min(t_hi, max_time);
    wavelet::DensityPlot density = wavelet::BuildDensityPlot(
        points, static_cast<size_t>(bins), static_cast<size_t>(bins), t_lo,
        hi, 0, max_energy);

    if (request.GetQuery("format") == "image") {
      analysis::Image image;
      image.width = density.x_bins;
      image.height = density.y_bins;
      image.pixels = density.counts;
      HttpResponse response;
      response.content_type = "image/gif";
      response.binary_body = analysis::RenderImage(image);
      return response;
    }
    // HTML summary: per-cluster extents.
    auto extents = wavelet::BuildExtentPlot(
        points, static_cast<size_t>(bins), t_lo, hi, 0, max_energy);
    TemplateValues values = page_.NewValues("Explore");
    values.Set(events_, static_cast<int64_t>(points.size()));
    values.Set(clusters_, static_cast<int64_t>(extents.size()));
    // The image link asks for the range this page shows.
    std::string range_lo = QueryDouble(t_lo), range_hi = QueryDouble(t_hi);
    values.Set(range_lo_, range_lo);
    values.Set(range_hi_, range_hi);
    values.SetRows(extents_, extents.size(),
                   [&](size_t i, TemplateValues* row) {
                     const wavelet::Extent& e = extents[i];
                     row->SetFixed(t_lo_, e.x_lo, 1);
                     row->SetFixed(t_hi_, e.x_hi, 1);
                     row->SetFixed(e_lo_, e.y_lo, 1);
                     row->SetFixed(e_hi_, e.y_hi, 1);
                     row->Set(n_, e.tuple_count);
                   });
    return page_.Render(values);
  }

 private:
  const Page page_;
  const int events_, clusters_, range_lo_, range_hi_;
  const int extents_, t_lo_, t_hi_, e_lo_, e_hi_, n_;
};

// Predefined queries (§1): run a vetted named query with parameters
// q0, q1, ... bound positionally.
class QueryServlet : public Servlet {
 public:
  explicit QueryServlet(Template page)
      : page_(std::move(page)),
        row_count_(page_.Slot("row_count")),
        header_(page_.Slot("header")),
        rows_(page_.Section("rows")),
        line_(page_.Slot({"rows"}, "line")) {}

  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    dm::Session session =
        BrowseSession(dm, server, request, dm::SessionKind::kCatalog);
    std::string name = request.GetQuery("name");
    if (name.empty()) return HttpResponse::BadRequest("name required");
    dm::PredefinedQueryService service(dm->database());
    std::vector<db::Value> params;
    for (int i = 0;; ++i) {
      std::string key = "q" + std::to_string(i);
      if (request.query.count(key) == 0) break;
      params.push_back(db::Value::Text(request.GetQuery(key)));
    }
    Result<db::ResultSet> rs = service.Run(session, name, params);
    if (!rs.ok()) {
      return rs.status().IsPermissionDenied()
                 ? HttpResponse::Forbidden(rs.status().ToString())
                 : HttpResponse::NotFound(rs.status().ToString());
    }
    // The column header and each row as one " | "-joined line.
    std::vector<std::string> lines;
    lines.reserve(rs.value().num_rows());
    for (const db::Row& row : rs.value().rows) {
      std::string& line = lines.emplace_back();
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) line += " | ";
        line += row[i].AsText();
      }
    }
    std::string header;
    for (size_t i = 0; i < rs.value().columns.size(); ++i) {
      if (i > 0) header += " | ";
      header += rs.value().columns[i];
    }
    std::string title = "Query " + name;
    TemplateValues values = page_.NewValues(title);
    values.Set(row_count_, static_cast<int64_t>(rs.value().num_rows()));
    values.Set(header_, header);
    values.SetRows(rows_, lines.size(), [&](size_t i, TemplateValues* row) {
      row->Set(line_, lines[i]);
    });
    return page_.Render(values);
  }

 private:
  const Page page_;
  const int row_count_, header_, rows_, line_;
};

// --- progressive view delivery + approximate aggregates (§3.4, §6.3) ----

// A unit's serving geometry, from its raw_units tuple.
struct UnitMeta {
  double t_start = 0;
  double t_stop = 0;
  int calibration_version = 0;
};

Result<UnitMeta> LookupUnit(dm::DataManager* dm, int64_t unit_id) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet rs,
      dm->database()->Execute(
          "SELECT t_start, t_stop, calibration_version FROM raw_units "
          "WHERE unit_id = ?",
          {db::Value::Int(unit_id)}));
  if (rs.num_rows() == 0) {
    return Status::NotFound(StrFormat("unknown raw unit %lld",
                                      static_cast<long long>(unit_id)));
  }
  UnitMeta meta;
  meta.t_start = rs.Get(0, "t_start").AsReal();
  meta.t_stop = rs.Get(0, "t_stop").AsReal();
  meta.calibration_version =
      static_cast<int>(rs.Get(0, "calibration_version").AsInt());
  return meta;
}

// Reads the stored view file and slices the byte prefix covering
// resolution levels 0..level from the requested signal ("count" = photon
// counts HDU, "energy" = summed keV HDU). level < 0 ships the full
// stream.
Result<std::vector<uint8_t>> BuildViewPrefix(dm::DataManager* dm,
                                             int64_t unit_id,
                                             const std::string& kind,
                                             int64_t level) {
  HEDC_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      dm->io().ReadItemFile(dm::ProcessLayer::ViewItemId(unit_id)));
  HEDC_ASSIGN_OR_RETURN(archive::FitsFile fits,
                        archive::FitsFile::Parse(bytes));
  const archive::FitsHdu* hdu =
      fits.FindHdu(kind == "energy" ? "VIEW_E" : "VIEW");
  if (hdu == nullptr) {
    return Status::NotFound("view file missing " + kind + " HDU");
  }
  if (level < 0) return hdu->data;
  return wavelet::SlicePrefixForLevel(hdu->data,
                                      static_cast<size_t>(level));
}

// Serves a per-resolution prefix through the derived-product cache,
// keyed on (routine "__view_prefix__", {resolution, kind},
// unit@calibration_version): a cached coarse prefix is returned without
// re-reading or re-slicing the stored view (web.view.builds counts the
// real builds), and recalibration invalidates every resolution of the
// unit at once through the ordinary lineage hook.
Result<std::vector<uint8_t>> FetchViewPrefix(dm::DataManager* dm,
                                             WebServer* server,
                                             int64_t unit_id,
                                             const std::string& kind,
                                             int64_t level) {
  HEDC_ASSIGN_OR_RETURN(UnitMeta meta, LookupUnit(dm, unit_id));
  pl::ProductCache* cache = server->frontend() != nullptr
                                ? server->frontend()->product_cache()
                                : nullptr;
  pl::ProductCache::Ticket ticket;
  if (cache != nullptr) {
    analysis::AnalysisParams params;
    params.SetInt("resolution", level);
    params.Set("kind", kind);
    ticket = cache->Admit(pl::MakeProductCacheKey(
        "__view_prefix__", params, {{unit_id, meta.calibration_version}}));
    if (ticket.role == pl::ProductCache::Role::kHit) {
      Result<analysis::AnalysisProduct> product =
          pl::DecodeProduct(ticket.hit.bytes);
      if (product.ok()) return std::move(product.value().rendered);
      // Corrupt entry: fall through to an uncached rebuild.
    } else if (ticket.role == pl::ProductCache::Role::kFollower) {
      Result<pl::ProductCache::CachedProduct> waited = cache->Await(ticket);
      if (waited.ok()) {
        Result<analysis::AnalysisProduct> product =
            pl::DecodeProduct(waited.value().bytes);
        if (product.ok()) return std::move(product.value().rendered);
      }
      // Leader failed (or decode did): rebuild locally.
    }
  }

  MetricsRegistry::Default()->GetCounter("web.view.builds")->Add();
  Result<std::vector<uint8_t>> prefix =
      BuildViewPrefix(dm, unit_id, kind, level);
  if (ticket.role == pl::ProductCache::Role::kLeader) {
    if (prefix.ok()) {
      analysis::AnalysisProduct product;
      product.routine = "__view_prefix__";
      product.metadata["kind"] = kind;
      product.metadata["resolution"] = std::to_string(level);
      product.rendered = prefix.value();
      cache->CompleteSuccess(ticket, product, /*cost_seconds=*/1e-3,
                             /*ana_id=*/0);
    } else {
      cache->CompleteFailure(ticket, prefix.status());
    }
  }
  return prefix;
}

// /view?unit=ID[&resolution=R][&kind=count|energy]: progressive wavelet
// delivery. Ships the prefix of the unit's stored HWV3 stream covering
// resolution levels 0..R; absent R uses wavelet.default_resolution
// (-1 = full fidelity). Clients decode any prefix with
// DecodeSignalPrefix and refine coarse-to-fine by re-requesting at
// higher R — each refinement is a cache-served byte slice, never a
// rebuild.
class ViewServlet : public Servlet {
 public:
  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    int64_t unit_id = 0;
    if (!ParseInt64(request.GetQuery("unit"), &unit_id)) {
      return HttpResponse::BadRequest("unit required");
    }
    int64_t level = server->delivery_options().default_view_resolution;
    std::string resolution = request.GetQuery("resolution");
    if (!resolution.empty() && !ParseInt64(resolution, &level)) {
      return HttpResponse::BadRequest("bad resolution");
    }
    std::string kind = request.GetQuery("kind", "count");
    if (kind != "count" && kind != "energy") {
      return HttpResponse::BadRequest("kind must be count or energy");
    }
    Result<std::vector<uint8_t>> prefix =
        FetchViewPrefix(dm, server, unit_id, kind, level);
    if (!prefix.ok()) {
      return HttpResponse::NotFound(prefix.status().ToString());
    }
    MetricsRegistry::Default()
        ->GetCounter("web.view.bytes")
        ->Add(static_cast<int64_t>(prefix.value().size()));
    HttpResponse response;
    response.content_type = "application/x-hedc-wavelet";
    response.binary_body = std::move(prefix).value();
    return response;
  }
};

// /approx?unit=ID[&agg=count|sum][&t_lo=..][&t_hi=..][&resolution=R]:
// error-bounded approximate aggregate over the unit's time range,
// answered from a coarse view prefix (deterministic ± bars, see
// PrefixInfo in wavelet/codec.h) so dashboard queries never touch the
// raw photon list. agg=count sums the binned photon counts; agg=sum the
// binned keV. When the unit has no stored view, a seeded
// reservoir-sampling scan of the raw photons answers instead
// (probabilistic ~95% bars, method "reservoir").
class ApproxServlet : public Servlet {
 public:
  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    const WebServer::DeliveryOptions& opts = server->delivery_options();
    if (!opts.approx_enabled) {
      return HttpResponse::Forbidden("approximate aggregates disabled");
    }
    int64_t unit_id = 0;
    if (!ParseInt64(request.GetQuery("unit"), &unit_id)) {
      return HttpResponse::BadRequest("unit required");
    }
    std::string agg = request.GetQuery("agg", "count");
    if (agg != "count" && agg != "sum") {
      return HttpResponse::BadRequest("agg must be count or sum");
    }
    Result<UnitMeta> meta = LookupUnit(dm, unit_id);
    if (!meta.ok()) return HttpResponse::NotFound(meta.status().ToString());
    double domain_lo = meta.value().t_start;
    double domain_hi = meta.value().t_stop + 1e-6;
    double t_lo = domain_lo, t_hi = domain_hi;
    ParseDouble(request.GetQuery("t_lo"), &t_lo);
    ParseDouble(request.GetQuery("t_hi"), &t_hi);
    if (t_hi < t_lo) return HttpResponse::BadRequest("inverted time range");
    int64_t level = opts.approx_default_resolution;
    std::string resolution = request.GetQuery("resolution");
    if (!resolution.empty() && !ParseInt64(resolution, &level)) {
      return HttpResponse::BadRequest("bad resolution");
    }

    std::string kind = agg == "sum" ? "energy" : "count";
    analysis::ApproxAnswer answer;
    std::string method;
    Result<std::vector<uint8_t>> prefix =
        FetchViewPrefix(dm, server, unit_id, kind, level);
    if (prefix.ok()) {
      double span = domain_hi - domain_lo;
      Result<analysis::ApproxAnswer> from_prefix =
          analysis::ApproxSumFromPrefix(prefix.value().data(),
                                        prefix.value().size(),
                                        (t_lo - domain_lo) / span,
                                        (t_hi - domain_lo) / span);
      if (from_prefix.ok()) {
        answer = from_prefix.value();
        method = "wavelet-prefix";
      }
    }
    if (method.empty()) {
      // No view (or an undecodable one): one sequential pass over the
      // raw photons through a fixed-size reservoir.
      Result<std::vector<uint8_t>> packed = dm->io().ReadItemFile(unit_id);
      if (!packed.ok()) {
        return HttpResponse::NotFound(packed.status().ToString());
      }
      Result<rhessi::RawDataUnit> unit =
          rhessi::RawDataUnit::Unpack(packed.value());
      if (!unit.ok()) {
        return HttpResponse::NotFound(unit.status().ToString());
      }
      analysis::ReservoirSampler sampler(
          static_cast<size_t>(std::max<int64_t>(opts.approx_reservoir_size,
                                                1)),
          /*seed=*/static_cast<uint64_t>(unit_id) * 1000003 +
              static_cast<uint64_t>(meta.value().calibration_version));
      for (const rhessi::PhotonEvent& p : unit.value().photons) {
        sampler.Add(p.time_sec, p.energy_kev);
      }
      answer = agg == "sum" ? sampler.EstimateSumInRange(t_lo, t_hi)
                            : sampler.EstimateCountInRange(t_lo, t_hi);
      method = "reservoir";
    }
    MetricsRegistry::Default()->GetCounter("web.approx.requests")->Add();
    HttpResponse response;
    response.content_type = "application/json";
    response.body = StrFormat(
        "{\"unit\":%lld,\"agg\":\"%s\",\"estimate\":%.6f,"
        "\"error_bound\":%.6f,\"bins\":%zu,\"bytes_read\":%zu,"
        "\"resolution\":%lld,\"method\":\"%s\"}",
        static_cast<long long>(unit_id), agg.c_str(), answer.estimate,
        answer.error_bound, answer.bins, answer.bytes_read,
        static_cast<long long>(level), method.c_str());
    return response;
  }
};

// Admin status page: archives, usage statistics, operational state
// ("monitoring information such as usage statistics or audit trails",
// §4.1).
class StatusServlet : public Servlet {
 public:
  explicit StatusServlet(Template page)
      : page_(std::move(page)),
        node_(page_.Slot("node")),
        requests_(page_.Slot("requests")),
        cache_entries_(page_.Slot("cache_entries")),
        archives_(page_.Section("archives")),
        archive_id_(page_.Slot({"archives"}, "id")),
        archive_type_(page_.Slot({"archives"}, "type")),
        archive_root_(page_.Slot({"archives"}, "root")),
        archive_online_(page_.Slot({"archives"}, "online")),
        usage_(page_.Section("usage")),
        usage_op_(page_.Slot({"usage"}, "op")),
        usage_count_(page_.Slot({"usage"}, "count")),
        metrics_(page_.Section("metrics")),
        metric_name_(page_.Slot({"metrics"}, "metric")),
        metric_kind_(page_.Slot({"metrics"}, "kind")),
        metric_value_(page_.Slot({"metrics"}, "value")) {}

  HttpResponse Handle(const HttpRequest& request, dm::DataManager* dm,
                      WebServer* server) override {
    dm::UserProfile profile = server->ProfileFor(request);
    if (!profile.is_super) {
      return HttpResponse::Forbidden("status page requires a super account");
    }
    TemplateValues values = page_.NewValues("Status");
    values.Set(node_, dm->name());
    values.Set(requests_, dm->requests_handled());
    std::vector<archive::ArchiveManager::Info> archives =
        dm->io().archives()->ListArchives();
    values.SetRows(archives_, archives.size(),
                   [&](size_t i, TemplateValues* row) {
                     const archive::ArchiveManager::Info& info = archives[i];
                     row->Set(archive_id_, info.archive_id);
                     row->Set(archive_type_,
                              archive::ArchiveTypeName(info.type));
                     row->Set(archive_root_, info.root);
                     row->Set(archive_online_,
                              info.online ? "online" : "OFFLINE");
                   });
    Result<db::ResultSet> usage = dm->database()->Execute(
        "SELECT operation, COUNT(*) FROM usage_stats GROUP BY operation");
    if (usage.ok()) {
      const std::vector<db::Row>& rows = usage.value().rows;
      values.SetRows(usage_, rows.size(), [&](size_t i, TemplateValues* row) {
        row->Set(usage_op_, TextCell(rows[i][0]));
        row->Set(usage_count_, rows[i][1].AsInt());
      });
    }
    // Derived-product cache directory (operational schema).
    Result<db::ResultSet> cache_rows = dm->database()->Execute(
        "SELECT COUNT(*) FROM product_cache");
    values.Set(cache_entries_,
               cache_rows.ok() && cache_rows.value().num_rows() > 0
                   ? cache_rows.value().rows[0][0].AsInt()
                   : 0);
    // Metrics section from the operational schema: refresh the mirror,
    // then render the snapshot rows.
    dm->MirrorMetrics();
    Result<db::ResultSet> metrics = dm->database()->Execute(
        "SELECT metric, kind, value FROM metric_snapshots ORDER BY metric");
    if (metrics.ok()) {
      const std::vector<db::Row>& rows = metrics.value().rows;
      values.SetRows(metrics_, rows.size(),
                     [&](size_t i, TemplateValues* row) {
                       row->Set(metric_name_, TextCell(rows[i][0]));
                       row->Set(metric_kind_, TextCell(rows[i][1]));
                       row->SetFixed(metric_value_, rows[i][2].AsReal(), 1);
                     });
    }
    return page_.Render(values);
  }

 private:
  const Page page_;
  const int node_, requests_, cache_entries_;
  const int archives_, archive_id_, archive_type_, archive_root_,
      archive_online_;
  const int usage_, usage_op_, usage_count_;
  const int metrics_, metric_name_, metric_kind_, metric_value_;
};

// Text exposition of the process-wide registry; also refreshes the
// operational-schema mirror so DB readers see the same snapshot.
class MetricsServlet : public Servlet {
 public:
  HttpResponse Handle(const HttpRequest&, dm::DataManager* dm,
                      WebServer*) override {
    dm->MirrorMetrics();
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = MetricsRegistry::Default()->RenderText();
    return response;
  }
};

Counter* LookupStatusCounter(int code) {
  return MetricsRegistry::Default()->GetCounter("web.status." +
                                                std::to_string(code));
}

}  // namespace

WebServer::WebServer(dm::DataManager* dm, pl::Frontend* frontend)
    : dm_(dm), frontend_(frontend) {
  // Continue past the usage rows of an earlier process on a recovered
  // database; reusing their stat_ids would fail every audit insert.
  Result<db::ResultSet> max_id =
      dm_->io().DatabaseFor("usage_stats")->Execute(
          "SELECT MAX(stat_id) FROM usage_stats");
  if (max_id.ok() && !max_id.value().rows.empty()) {
    stat_counter_ = max_id.value().rows[0][0].AsInt() + 1;
  }
  for (int code : {200, 400, 403, 404}) {
    status_counters_.emplace_back(code, LookupStatusCounter(code));
  }
}

Counter* WebServer::StatusCounter(int code) {
  for (const auto& [known, counter] : status_counters_) {
    if (known == code) return counter;
  }
  return LookupStatusCounter(code);
}

Status WebServer::RegisterStandardServlets() {
  // Compile every page before registering any servlet.
  HEDC_ASSIGN_OR_RETURN(Template login, CompilePage(kLoginBody));
  HEDC_ASSIGN_OR_RETURN(Template logout, CompilePage(kLogoutBody));
  HEDC_ASSIGN_OR_RETURN(Template catalog, CompilePage(kCatalogBody));
  HEDC_ASSIGN_OR_RETURN(Template hle, CompilePage(kHleBody));
  HEDC_ASSIGN_OR_RETURN(Template ana, CompilePage(kAnaBody));
  HEDC_ASSIGN_OR_RETURN(Template analysis_exists,
                        CompilePage(kAnalysisExistsBody));
  HEDC_ASSIGN_OR_RETURN(Template analysis_done,
                        CompilePage(kAnalysisDoneBody));
  HEDC_ASSIGN_OR_RETURN(Template explore, CompilePage(kExploreBody));
  HEDC_ASSIGN_OR_RETURN(Template query, CompilePage(kQueryBody));
  HEDC_ASSIGN_OR_RETURN(Template status, CompilePage(kStatusBody));
  Register("/login", std::make_unique<LoginServlet>(std::move(login)));
  Register("/logout", std::make_unique<LogoutServlet>(std::move(logout)));
  Register("/catalog", std::make_unique<CatalogServlet>(std::move(catalog)));
  Register("/hle", std::make_unique<HlePageServlet>(std::move(hle)));
  Register("/ana", std::make_unique<AnaPageServlet>(std::move(ana)));
  Register("/image", std::make_unique<ImageServlet>());
  Register("/analyze",
           std::make_unique<AnalyzeServlet>(std::move(analysis_exists),
                                            std::move(analysis_done)));
  Register("/explore", std::make_unique<ExploreServlet>(std::move(explore)));
  Register("/query", std::make_unique<QueryServlet>(std::move(query)));
  Register("/status", std::make_unique<StatusServlet>(std::move(status)));
  Register("/metrics", std::make_unique<MetricsServlet>());
  Register("/view", std::make_unique<ViewServlet>());
  Register("/approx", std::make_unique<ApproxServlet>());
  return Status::Ok();
}

WebServer::DeliveryOptions WebServer::DeliveryOptions::FromConfig(
    const Config& config) {
  DeliveryOptions out;
  out.default_view_resolution =
      config.GetInt("wavelet.default_resolution", out.default_view_resolution);
  out.approx_enabled = config.GetBool("approx.enabled", out.approx_enabled);
  out.approx_default_resolution =
      config.GetInt("approx.resolution", out.approx_default_resolution);
  out.approx_reservoir_size =
      config.GetInt("approx.reservoir_size", out.approx_reservoir_size);
  return out;
}

void WebServer::Register(const std::string& path,
                         std::unique_ptr<Servlet> servlet) {
  MetricsRegistry* metrics = MetricsRegistry::Default();
  Route& route = servlets_[path];
  route.servlet = std::move(servlet);
  route.requests = metrics->GetCounter("web.requests" + path);
  route.latency = metrics->GetHistogram("web.latency_us" + path);
}

HttpResponse WebServer::Dispatch(const HttpRequest& request) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry* metrics = MetricsRegistry::Default();
  auto it = servlets_.find(request.path);
  if (it == servlets_.end()) {
    StatusCounter(404)->Add();
    return HttpResponse::NotFound("no servlet for " + request.path);
  }
  const Route& route = it->second;
  // Every dispatched request gets a trace id; servlets thread it through
  // their session into the PL so the whole request is followable.
  if (request.trace_id == 0) {
    request.trace_id = metrics->traces().NewTraceId();
  }
  route.requests->Add();
  // Call redirection: the request may execute on a peer DM node (§5.4).
  // A cluster router (when installed) owns the choice; otherwise the
  // request runs on this server's own node.
  dm::DataManager* node = node_router_ ? node_router_(request) : nullptr;
  if (node == nullptr) node = dm_;
  node->CountRequest();
  Micros start = node->clock()->Now();
  HttpResponse response = [&] {
    ScopedTimer timer(route.latency);
    TraceSpan span(request.trace_id, "web", request.path);
    return route.servlet->Handle(request, node, this);
  }();
  StatusCounter(response.status_code)->Add();
  if (record_usage_) {
    // Operational section: usage statistics / audit trail (§4.1).
    dm::UserProfile profile = ProfileFor(request);
    Result<db::ResultSet> recorded = node->io().Update(
        "usage_stats", "INSERT INTO usage_stats VALUES (?, ?, ?, ?, ?)",
        {db::Value::Int(stat_counter_.fetch_add(1)),
         db::Value::Real(static_cast<double>(start) / kMicrosPerSecond),
         db::Value::Int(profile.user_id), db::Value::Text(request.path),
         db::Value::Real(
             static_cast<double>(node->clock()->Now() - start) /
             kMicrosPerMilli)});
    if (!recorded.ok()) metrics->GetCounter("web.usage_stats.failed")->Add();
  }
  return response;
}

dm::UserProfile WebServer::ProfileFor(const HttpRequest& request) {
  std::string token = request.GetCookie("hedc_session");
  if (!token.empty()) {
    std::lock_guard<std::mutex> lock(token_mu_);
    auto it = tokens_.find(token);
    if (it != tokens_.end()) return it->second;
  }
  return dm::AnonymousUser();
}

std::string WebServer::IssueToken(const dm::UserProfile& profile) {
  std::string token =
      StrFormat("tok_%lld_%lld", (long long)profile.user_id,
                (long long)token_counter_.fetch_add(1));
  std::lock_guard<std::mutex> lock(token_mu_);
  tokens_[token] = profile;
  return token;
}

void WebServer::RevokeToken(const std::string& token) {
  std::lock_guard<std::mutex> lock(token_mu_);
  tokens_.erase(token);
}

}  // namespace hedc::web
