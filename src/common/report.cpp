#include "common/report.hpp"

#include "common/log.hpp"
#include "common/table.hpp"

namespace reno
{

void
addField(ReportRecord &rec, const std::string &name,
         const std::string &value)
{
    rec.push_back({name, value, false});
}

void
addField(ReportRecord &rec, const std::string &name,
         std::uint64_t value)
{
    rec.push_back(
        {name, strprintf("%llu", static_cast<unsigned long long>(value)),
         true});
}

void
addField(ReportRecord &rec, const std::string &name, double value,
         int decimals)
{
    rec.push_back({name, strprintf("%.*f", decimals, value), true});
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

std::string
renderJson(const std::vector<ReportRecord> &records)
{
    std::string out = "[\n";
    for (std::size_t r = 0; r < records.size(); ++r) {
        out += "  {";
        const ReportRecord &rec = records[r];
        for (std::size_t f = 0; f < rec.size(); ++f) {
            if (f)
                out += ", ";
            out += '"';
            out += jsonEscape(rec[f].name);
            out += "\": ";
            if (rec[f].numeric) {
                out += rec[f].value;
            } else {
                out += '"';
                out += jsonEscape(rec[f].value);
                out += '"';
            }
        }
        out += r + 1 < records.size() ? "},\n" : "}\n";
    }
    out += "]\n";
    return out;
}

std::string
renderCsv(const std::vector<ReportRecord> &records)
{
    if (records.empty())
        return "";
    std::string out;
    const ReportRecord &first = records.front();
    for (std::size_t f = 0; f < first.size(); ++f) {
        if (f)
            out += ',';
        out += csvEscape(first[f].name);
    }
    out += '\n';
    for (const ReportRecord &rec : records) {
        if (rec.size() != first.size())
            fatal("CSV report: record has %zu fields, header has %zu",
                  rec.size(), first.size());
        for (std::size_t f = 0; f < rec.size(); ++f) {
            if (f)
                out += ',';
            out += csvEscape(rec[f].value);
        }
        out += '\n';
    }
    return out;
}

std::string
renderTable(const std::vector<ReportRecord> &records)
{
    if (records.empty())
        return "";
    TextTable t;
    std::vector<std::string> header;
    for (const ReportField &f : records.front())
        header.push_back(f.name);
    t.header(header);
    for (const ReportRecord &rec : records) {
        std::vector<std::string> row;
        for (const ReportField &f : rec)
            row.push_back(f.value);
        t.row(row);
    }
    return t.render();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace reno
