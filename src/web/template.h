// HTML template engine (§6.1): "a response may involve a combination of
// multiple HTML template files, which are populated during query
// processing. Each template contains dynamic and static images, Java
// Script, CSS style sheets and plain text."
//
// Syntax:
//   {{name}}                 scalar substitution (HTML-escaped)
//   {{&name}}                raw substitution (no escaping)
//   {{#rows}} ... {{/rows}}  section repeated per row
// A name inside a section resolves in that section's rows only, never in
// the enclosing scope. Unknown scalars render empty; unknown sections
// render zero times.
//
// A template is compiled once into an op list (literal spans, slot
// numbers, section ranges) and then rendered any number of times: each
// render appends into the caller's buffer, and a section renders from a
// row callback over the caller's own records, so a page of N rows makes
// no per-row map or string.
#ifndef HEDC_WEB_TEMPLATE_H_
#define HEDC_WEB_TEMPLATE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace hedc::web {

struct TemplateContext;

// Appends `text` to *out with &, <, >, " escaped for HTML bodies.
void HtmlEscape(std::string_view text, std::string* out);

// The values one scope of a template renders from: one value per slot,
// and for each section the scope opens, a row count and a callback that
// fills the values of row i just before the row renders. Text values are
// views: what they point at must outlive the Render call.
class TemplateValues {
 public:
  using RowFill = std::function<void(size_t row, TemplateValues* values)>;

  // A slot number < 0 (a name the template lacks) is ignored.
  void Set(int slot, std::string_view text);
  // Renders like std::to_string(number).
  void Set(int slot, int64_t number);
  // Renders like printf("%.*f", decimals, value), decimals in [0, 17].
  void SetFixed(int slot, double value, int decimals);
  void SetRows(int section, size_t rows, RowFill fill);

 private:
  friend class Template;
  struct Value {
    enum class Kind : uint8_t { kEmpty, kText, kInt, kFixed };
    Kind kind = Kind::kEmpty;
    int decimals = 0;
    std::string_view text;
    int64_t number = 0;
    double real = 0;
  };
  struct Rows {
    size_t count = 0;
    RowFill fill;
  };
  TemplateValues(size_t slots, size_t sections)
      : slots_(slots), sections_(sections) {}
  Value* At(int slot);  // nullptr when out of range

  std::vector<Value> slots_;
  std::vector<Rows> sections_;
};

class Template {
 public:
  // Parses `text` once. Fails on an unterminated {{ tag, a closing tag
  // that does not close the innermost open section, or a section left
  // open at the end.
  static Result<Template> Compile(std::string_view text);

  // Slot and section numbers, resolved once by name in the scope reached
  // through the enclosing section names `path` (top level when omitted).
  // -1 when the template has no such name there.
  int Slot(std::string_view name) const { return Slot({}, name); }
  int Slot(std::initializer_list<std::string_view> path,
           std::string_view name) const;
  int Section(std::string_view name) const { return Section({}, name); }
  int Section(std::initializer_list<std::string_view> path,
              std::string_view name) const;

  // Values sized for the top-level scope, all empty.
  TemplateValues NewValues() const;
  // Appends the rendering to *out.
  void Render(const TemplateValues& values, std::string* out) const;

 private:
  friend Result<std::string> RenderTemplate(const std::string&,
                                            const TemplateContext&);
  enum class OpKind : uint8_t { kLiteral, kSlot, kRawSlot, kSection };
  struct Op {
    OpKind kind = OpKind::kLiteral;
    uint32_t begin = 0;  // literal: offset into text_
    uint32_t size = 0;   // literal: length
    uint32_t index = 0;  // slot or section number in the enclosing scope
    uint32_t end = 0;    // section: index of the op after its body
  };
  struct Scope {
    std::vector<std::string> slots;
    std::vector<std::string> sections;
    std::vector<int> section_scopes;  // scope of each section, by number
    size_t literal_bytes = 0;         // literal text rendered per row
  };
  Template() = default;

  // The scope `path` leads to, or -1.
  int ScopeOf(std::initializer_list<std::string_view> path) const;
  TemplateValues ValuesFor(int scope) const;
  void RenderOps(size_t begin, size_t end, int scope,
                 const TemplateValues& values, std::string* out) const;

  std::string text_;
  std::vector<Op> ops_;
  std::vector<Scope> scopes_;  // scopes_[0] is the top level
};

// Map-based values for RenderTemplate.
struct TemplateContext {
  std::map<std::string, std::string> scalars;
  std::map<std::string, std::vector<TemplateContext>> sections;

  void Set(const std::string& key, const std::string& value) {
    scalars[key] = value;
  }
  TemplateContext& AddRow(const std::string& section) {
    sections[section].emplace_back();
    return sections[section].back();
  }
};

// Compiles `tmpl` and renders it from `context` in one call. Pages are
// served from templates compiled at startup; this form builds a map per
// row and suits one-off renders only.
Result<std::string> RenderTemplate(const std::string& tmpl,
                                   const TemplateContext& context);

}  // namespace hedc::web

#endif  // HEDC_WEB_TEMPLATE_H_
