/**
 * @file
 * Structured report emitters. A report is a list of flat records
 * (ordered name/value fields); the same records render as an aligned
 * text table, a JSON array of objects, or CSV with a header row.
 * Numeric fields carry a flag so JSON emits them unquoted.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace reno
{

/** One field of a report record. */
struct ReportField {
    std::string name;
    std::string value;
    bool numeric = false;  //!< JSON: emit bare rather than quoted
};

/** One record (row); field order defines column order. */
using ReportRecord = std::vector<ReportField>;

/** Append helpers. */
void addField(ReportRecord &rec, const std::string &name,
              const std::string &value);
void addField(ReportRecord &rec, const std::string &name,
              std::uint64_t value);
void addField(ReportRecord &rec, const std::string &name, double value,
              int decimals = 4);

/** Escape a string for a JSON string literal (no surrounding quotes). */
std::string jsonEscape(const std::string &s);

/** Escape a CSV cell (quotes it when it contains , " or newline). */
std::string csvEscape(const std::string &s);

/**
 * Render records as a JSON array of objects, two-space indented,
 * trailing newline. Records may have differing field sets.
 */
std::string renderJson(const std::vector<ReportRecord> &records);

/**
 * Render records as CSV: header row from the first record's field
 * names, then one line per record. All records must share the first
 * record's field set.
 */
std::string renderCsv(const std::vector<ReportRecord> &records);

/** Render records as an aligned text table (common/table.hpp). */
std::string renderTable(const std::vector<ReportRecord> &records);

/** Write @p text to the file @p path, replacing it. False when the
 *  file cannot be opened or the write comes up short. */
bool writeFile(const std::string &path, const std::string &text);

} // namespace reno
