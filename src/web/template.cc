#include "web/template.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <utility>

namespace hedc::web {

void HtmlEscape(std::string_view text, std::string* out) {
  size_t pos = 0;
  while (pos < text.size()) {
    // Copy the run up to the next special character in one append.
    size_t special = pos;
    while (special < text.size() && text[special] != '&' &&
           text[special] != '<' && text[special] != '>' &&
           text[special] != '"') {
      ++special;
    }
    out->append(text.data() + pos, special - pos);
    if (special == text.size()) break;
    switch (text[special]) {
      case '&':
        out->append("&amp;");
        break;
      case '<':
        out->append("&lt;");
        break;
      case '>':
        out->append("&gt;");
        break;
      default:
        out->append("&quot;");
    }
    pos = special + 1;
  }
}

TemplateValues::Value* TemplateValues::At(int slot) {
  return slot >= 0 && static_cast<size_t>(slot) < slots_.size()
             ? &slots_[slot]
             : nullptr;
}

void TemplateValues::Set(int slot, std::string_view text) {
  if (Value* value = At(slot)) {
    value->kind = Value::Kind::kText;
    value->text = text;
  }
}

void TemplateValues::Set(int slot, int64_t number) {
  if (Value* value = At(slot)) {
    value->kind = Value::Kind::kInt;
    value->number = number;
  }
}

void TemplateValues::SetFixed(int slot, double real, int decimals) {
  if (Value* value = At(slot)) {
    value->kind = Value::Kind::kFixed;
    value->real = real;
    value->decimals = std::clamp(decimals, 0, 17);
  }
}

void TemplateValues::SetRows(int section, size_t rows, RowFill fill) {
  if (section >= 0 && static_cast<size_t>(section) < sections_.size()) {
    sections_[section] = Rows{rows, std::move(fill)};
  }
}

namespace {

int Find(const std::vector<std::string>& names, std::string_view name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

// Interns `name` in `names`; returns its number.
uint32_t Intern(std::vector<std::string>* names, std::string_view name) {
  int found = Find(*names, name);
  if (found >= 0) return static_cast<uint32_t>(found);
  names->emplace_back(name);
  return static_cast<uint32_t>(names->size() - 1);
}

}  // namespace

Result<Template> Template::Compile(std::string_view text) {
  if (text.size() > UINT32_MAX) {
    return Status::InvalidArgument("template longer than 4 GiB");
  }
  Template out;
  out.text_ = std::string(text);
  out.scopes_.emplace_back();
  // Open sections, innermost last: the op that opened each, its name and
  // the scope its body resolves names in.
  struct Open {
    size_t op;
    std::string_view name;
    int scope;
  };
  std::vector<Open> open;
  int scope = 0;
  auto literal = [&](size_t begin, size_t end) {
    if (end == begin) return;
    Op op;
    op.begin = static_cast<uint32_t>(begin);
    op.size = static_cast<uint32_t>(end - begin);
    out.ops_.push_back(op);
    out.scopes_[scope].literal_bytes += end - begin;
  };
  const std::string_view source = out.text_;
  size_t pos = 0;
  while (pos < source.size()) {
    size_t tag_open = source.find("{{", pos);
    if (tag_open == std::string_view::npos) {
      literal(pos, source.size());
      break;
    }
    literal(pos, tag_open);
    size_t tag_close = source.find("}}", tag_open + 2);
    if (tag_close == std::string_view::npos) {
      return Status::InvalidArgument("unterminated {{ tag");
    }
    std::string_view tag =
        source.substr(tag_open + 2, tag_close - tag_open - 2);
    pos = tag_close + 2;
    if (tag.empty()) continue;
    if (tag[0] == '/') {
      std::string_view name = tag.substr(1);
      if (open.empty() || open.back().name != name) {
        return Status::InvalidArgument("unexpected closing tag {{/" +
                                       std::string(name) + "}}");
      }
      out.ops_[open.back().op].end = static_cast<uint32_t>(out.ops_.size());
      open.pop_back();
      scope = open.empty() ? 0 : open.back().scope;
      continue;
    }
    Op op;
    if (tag[0] == '#') {
      std::string_view name = tag.substr(1);
      op.kind = OpKind::kSection;
      // A section name seen before in this scope reuses its scope, so both
      // bodies resolve names in the same rows.
      int index = Find(out.scopes_[scope].sections, name);
      if (index < 0) {
        index = static_cast<int>(out.scopes_[scope].sections.size());
        out.scopes_[scope].sections.emplace_back(name);
        out.scopes_[scope].section_scopes.push_back(
            static_cast<int>(out.scopes_.size()));
        out.scopes_.emplace_back();
      }
      op.index = static_cast<uint32_t>(index);
      open.push_back({out.ops_.size(), name,
                      out.scopes_[scope].section_scopes[op.index]});
      out.ops_.push_back(op);
      scope = open.back().scope;
      continue;
    }
    bool raw = tag[0] == '&';
    op.kind = raw ? OpKind::kRawSlot : OpKind::kSlot;
    op.index = Intern(&out.scopes_[scope].slots, raw ? tag.substr(1) : tag);
    out.ops_.push_back(op);
  }
  if (!open.empty()) {
    return Status::InvalidArgument("missing {{/" +
                                   std::string(open.back().name) + "}}");
  }
  return out;
}

int Template::ScopeOf(std::initializer_list<std::string_view> path) const {
  int scope = 0;
  for (std::string_view section : path) {
    int index = Find(scopes_[scope].sections, section);
    if (index < 0) return -1;
    scope = scopes_[scope].section_scopes[index];
  }
  return scope;
}

int Template::Slot(std::initializer_list<std::string_view> path,
                   std::string_view name) const {
  int scope = ScopeOf(path);
  return scope < 0 ? -1 : Find(scopes_[scope].slots, name);
}

int Template::Section(std::initializer_list<std::string_view> path,
                      std::string_view name) const {
  int scope = ScopeOf(path);
  return scope < 0 ? -1 : Find(scopes_[scope].sections, name);
}

TemplateValues Template::ValuesFor(int scope) const {
  return TemplateValues(scopes_[scope].slots.size(),
                        scopes_[scope].sections.size());
}

TemplateValues Template::NewValues() const { return ValuesFor(0); }

void Template::Render(const TemplateValues& values, std::string* out) const {
  out->reserve(out->size() + scopes_[0].literal_bytes);
  RenderOps(0, ops_.size(), 0, values, out);
}

void Template::RenderOps(size_t begin, size_t end, int scope,
                         const TemplateValues& values,
                         std::string* out) const {
  using Value = TemplateValues::Value;
  for (size_t i = begin; i < end; ++i) {
    const Op& op = ops_[i];
    switch (op.kind) {
      case OpKind::kLiteral:
        out->append(text_.data() + op.begin, op.size);
        break;
      case OpKind::kSlot:
      case OpKind::kRawSlot: {
        const Value& value = values.slots_[op.index];
        switch (value.kind) {
          case Value::Kind::kEmpty:
            break;
          case Value::Kind::kText:
            if (op.kind == OpKind::kSlot) {
              HtmlEscape(value.text, out);
            } else {
              out->append(value.text);
            }
            break;
          case Value::Kind::kInt: {
            char buf[24];
            auto [end_ptr, ec] =
                std::to_chars(buf, buf + sizeof(buf), value.number);
            (void)ec;  // 24 bytes hold any int64_t
            out->append(buf, end_ptr);
            break;
          }
          case Value::Kind::kFixed: {
            // Holds any double: 309 integer digits, a sign, a point and at
            // most 17 decimals. Digits, '-', '.', "inf" and "nan" need no
            // escaping.
            char buf[512];
            int n = std::snprintf(buf, sizeof(buf), "%.*f", value.decimals,
                                  value.real);
            if (n > 0) out->append(buf, static_cast<size_t>(n));
            break;
          }
        }
        break;
      }
      case OpKind::kSection: {
        const TemplateValues::Rows& rows = values.sections_[op.index];
        if (rows.count > 0 && rows.fill) {
          int row_scope = scopes_[scope].section_scopes[op.index];
          TemplateValues row_values = ValuesFor(row_scope);
          size_t start = out->size();
          for (size_t row = 0; row < rows.count; ++row) {
            for (Value& slot : row_values.slots_) slot = Value{};
            for (TemplateValues::Rows& nested : row_values.sections_) {
              nested = TemplateValues::Rows{};
            }
            rows.fill(row, &row_values);
            RenderOps(i + 1, op.end, row_scope, row_values, out);
            if (row == 0) {
              // Size the buffer for the remaining rows after the first.
              size_t row_bytes = out->size() - start;
              out->reserve(out->size() +
                           (rows.count - 1) * (row_bytes + row_bytes / 4));
            }
          }
        }
        i = op.end - 1;
        break;
      }
    }
  }
}

Result<std::string> RenderTemplate(const std::string& tmpl,
                                   const TemplateContext& context) {
  HEDC_ASSIGN_OR_RETURN(Template compiled, Template::Compile(tmpl));
  // Recursive: each row's fill points its slots at that row's map.
  std::function<void(int, const TemplateContext&, TemplateValues*)> fill =
      [&](int scope, const TemplateContext& ctx, TemplateValues* values) {
        const auto& s = compiled.scopes_[scope];
        for (size_t i = 0; i < s.slots.size(); ++i) {
          auto it = ctx.scalars.find(s.slots[i]);
          if (it != ctx.scalars.end()) {
            values->Set(static_cast<int>(i), std::string_view(it->second));
          }
        }
        for (size_t i = 0; i < s.sections.size(); ++i) {
          auto it = ctx.sections.find(s.sections[i]);
          if (it == ctx.sections.end()) continue;
          const std::vector<TemplateContext>& rows = it->second;
          int row_scope = s.section_scopes[i];
          values->SetRows(static_cast<int>(i), rows.size(),
                          [&fill, &rows, row_scope](size_t row,
                                                    TemplateValues* v) {
                            fill(row_scope, rows[row], v);
                          });
        }
      };
  TemplateValues values = compiled.NewValues();
  fill(0, context, &values);
  std::string out;
  compiled.Render(values, &out);
  return out;
}

}  // namespace hedc::web
