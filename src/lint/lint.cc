#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>
#include <tuple>
#include <utility>

namespace noisybeeps::lint {
namespace {

constexpr std::string_view kMarker = "NBLINT(";

std::string Trimmed(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) != 0) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back())) != 0) {
    text.remove_suffix(1);
  }
  return std::string(text);
}

}  // namespace

std::vector<Suppression> CollectSuppressions(const FileModel& file) {
  std::vector<Suppression> suppressions;
  for (std::size_t ti = 0; ti < file.tokens().size(); ++ti) {
    const Token& token = file.tokens()[ti];
    if (token.kind != TokenKind::kComment) continue;
    // A suppression is the WHOLE comment: the marker must lead it, so
    // prose that merely mentions the syntax never parses as one.
    const std::string text = CommentText(token);
    if (!text.starts_with("NBLINT")) continue;

    Suppression sup;
    sup.file = file.path();
    sup.comment_line = token.line;
    // A trailing comment targets its own line; a comment alone on a line
    // targets the next one.
    bool code_before = false;
    for (const std::size_t ci : file.code()) {
      const Token& t = file.tokens()[ci];
      if (t.line == token.line && t.offset < token.offset) {
        code_before = true;
        break;
      }
    }
    sup.target_line = code_before ? token.line : token.line + 1;

    const std::size_t close = text.find(')');
    if (!text.starts_with(kMarker) || close == std::string::npos) {
      // Malformed (typo'd marker, no closing paren): rule_id stays
      // empty; the engine reports it instead of silently ignoring it.
      suppressions.push_back(std::move(sup));
      continue;
    }
    sup.rule_id = Trimmed(
        std::string_view(text).substr(kMarker.size(), close - kMarker.size()));
    std::string_view rest = std::string_view(text).substr(close + 1);
    if (!rest.empty() && rest.front() == ':') rest.remove_prefix(1);
    sup.justification = Trimmed(rest);
    suppressions.push_back(std::move(sup));
  }
  return suppressions;
}

namespace {

void SortFindings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule_id, a.message) <
                     std::tie(b.file, b.line, b.rule_id, b.message);
            });
}

}  // namespace

std::vector<Finding> RunRule(const Rule& rule,
                             const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  if (rule.run != nullptr) {
    rule.run(RepoModel(files), findings);
    for (Finding& f : findings) f.severity = rule.severity;
  }
  SortFindings(findings);
  return findings;
}

std::vector<Finding> RunAllChecks(const std::vector<SourceFile>& files) {
  const RepoModel model(files);
  std::vector<Finding> findings;
  for (const Rule& rule : AllRules()) {
    if (rule.run == nullptr) continue;
    const std::size_t before = findings.size();
    rule.run(model, findings);
    for (std::size_t i = before; i < findings.size(); ++i) {
      findings[i].severity = rule.severity;
    }
  }

  std::vector<Finding> meta;
  for (const FileModel& file : model.files()) {
    for (const Suppression& sup : CollectSuppressions(file)) {
      if (sup.rule_id.empty()) {
        meta.push_back(
            {sup.file, sup.comment_line, "suppression-unknown-rule",
             "malformed NBLINT suppression: expected "
             "// NBLINT(rule-id): justification"});
        continue;
      }
      if (FindRule(sup.rule_id) == nullptr) {
        meta.push_back(
            {sup.file, sup.comment_line, "suppression-unknown-rule",
             "NBLINT suppression names unknown rule '" + sup.rule_id +
                 "'; it silences nothing"});
        continue;
      }
      if (sup.justification.empty()) {
        meta.push_back(
            {sup.file, sup.comment_line, "suppression-justification",
             "NBLINT(" + sup.rule_id +
                 ") suppression has no justification -- say why the "
                 "finding is acceptable; an unjustified suppression "
                 "silences nothing"});
        continue;
      }
      std::erase_if(findings, [&sup](const Finding& f) {
        return f.file == sup.file && f.rule_id == sup.rule_id &&
               f.line == sup.target_line;
      });
    }
  }
  findings.insert(findings.end(), meta.begin(), meta.end());
  SortFindings(findings);
  return findings;
}

std::string FormatText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": ";
    out += SeverityName(f.severity);
    out += ": " + f.rule_id + ": " + f.message + "\n";
  }
  return out;
}

namespace {

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string FormatJson(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n  {\"file\": ";
    AppendJsonString(out, findings[i].file);
    out += ", \"line\": " + std::to_string(findings[i].line) + ", \"rule\": ";
    AppendJsonString(out, findings[i].rule_id);
    out += ", \"severity\": ";
    AppendJsonString(out, SeverityName(findings[i].severity));
    out += ", \"message\": ";
    AppendJsonString(out, findings[i].message);
    out += "}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

std::string FormatSarif(const std::vector<Finding>& findings) {
  // SARIF maps our severities onto its `level` enum: error stays error,
  // warn becomes "warning".
  const auto level = [](Severity s) {
    return s == Severity::kError ? "error" : "warning";
  };
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"nblint\",\n"
      "          \"informationUri\": \"docs/TOOLING.md\",\n"
      "          \"rules\": [\n";
  const std::vector<Rule>& rules = AllRules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += "            {\"id\": ";
    AppendJsonString(out, rules[i].id);
    out += ", \"shortDescription\": {\"text\": ";
    AppendJsonString(out, rules[i].summary);
    out += "}, \"defaultConfiguration\": {\"level\": ";
    AppendJsonString(out, level(rules[i].severity));
    out += "}, \"properties\": {\"category\": ";
    AppendJsonString(out, rules[i].category);
    out += "}}";
    out += i + 1 < rules.size() ? ",\n" : "\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::size_t rule_index = 0;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      if (rules[r].id == f.rule_id) {
        rule_index = r;
        break;
      }
    }
    out += "        {\"ruleId\": ";
    AppendJsonString(out, f.rule_id);
    out += ", \"ruleIndex\": " + std::to_string(rule_index);
    out += ", \"level\": ";
    AppendJsonString(out, level(f.severity));
    out += ", \"message\": {\"text\": ";
    AppendJsonString(out, f.message);
    out +=
        "}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
        "{\"uri\": ";
    AppendJsonString(out, f.file);
    out += "}, \"region\": {\"startLine\": " + std::to_string(f.line) +
           "}}}]";
    out += "}";
    out += i + 1 < findings.size() ? ",\n" : "\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

namespace {

// The next JSON string literal at or after `pos`; npos when none.
// Good enough for the baseline file, whose strings are rule ids and
// repo-relative paths (no escapes).
std::string NextJsonString(const std::string& json, std::size_t& pos) {
  const std::size_t open = json.find('"', pos);
  if (open == std::string::npos) {
    pos = std::string::npos;
    return "";
  }
  const std::size_t close = json.find('"', open + 1);
  if (close == std::string::npos) {
    pos = std::string::npos;
    return "";
  }
  pos = close + 1;
  return json.substr(open + 1, close - open - 1);
}

}  // namespace

std::vector<BaselineEntry> ParseBaseline(const std::string& json) {
  std::vector<BaselineEntry> entries;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t rule_key = json.find("\"rule\"", pos);
    if (rule_key == std::string::npos) break;
    pos = rule_key + 6;
    BaselineEntry entry;
    entry.rule_id = NextJsonString(json, pos);
    if (pos == std::string::npos) break;
    const std::size_t file_key = json.find("\"file\"", pos);
    if (file_key == std::string::npos) break;
    pos = file_key + 6;
    entry.file = NextJsonString(json, pos);
    if (entry.rule_id.empty() || entry.file.empty()) continue;
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::string FormatBaseline(const std::vector<Finding>& findings) {
  std::set<std::pair<std::string, std::string>> keys;
  for (const Finding& f : findings) {
    if (f.severity != Severity::kWarn) continue;
    keys.emplace(f.rule_id, f.file);
  }
  std::string out = "{\n  \"version\": 1,\n  \"findings\": [";
  bool first = true;
  for (const auto& [rule, file] : keys) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"rule\": ";
    AppendJsonString(out, rule);
    out += ", \"file\": ";
    AppendJsonString(out, file);
    out += "}";
  }
  out += keys.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::vector<Finding> NewFindings(const std::vector<Finding>& findings,
                                 const std::vector<BaselineEntry>& baseline) {
  std::set<std::pair<std::string, std::string>> known;
  for (const BaselineEntry& entry : baseline) {
    known.emplace(entry.rule_id, entry.file);
  }
  std::vector<Finding> fresh;
  for (const Finding& f : findings) {
    if (f.severity != Severity::kWarn) continue;
    if (known.count({f.rule_id, f.file}) > 0) continue;
    fresh.push_back(f);
  }
  return fresh;
}

}  // namespace noisybeeps::lint
