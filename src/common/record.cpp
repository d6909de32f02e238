#include "common/record.hpp"

#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include <unistd.h>

#include "common/log.hpp"

namespace reno
{

void
RecordWriter::appendHex(const void *data, std::size_t len)
{
    static const char digits[] = "0123456789abcdef";
    const auto *bytes = static_cast<const unsigned char *>(data);
    out_ += ' ';
    for (std::size_t i = 0; i < len; ++i) {
        out_ += digits[bytes[i] >> 4];
        out_ += digits[bytes[i] & 0xf];
    }
}

bool
RecordReader::fail(const std::string &reason)
{
    if (error_.empty())
        error_ = strprintf("line %zu: %s", lineNo_, reason.c_str());
    return false;
}

bool
RecordReader::malformed()
{
    return fail(strprintf("malformed value %u of '%s'", valueNo_,
                          key_.c_str()));
}

bool
RecordReader::beginLine(std::string_view key)
{
    const std::size_t start = lineNo_++ ? lineEnd_ + 1 : 0;
    key_ = key;
    valueNo_ = 0;
    if (start >= text_.size())
        return fail("missing record '" + key_ + "' (end of input)");
    lineEnd_ = text_.find('\n', start);
    if (lineEnd_ == std::string_view::npos) {
        lineEnd_ = text_.size();
        return fail("missing newline (truncated input?)");
    }
    const std::string_view line = text_.substr(start, lineEnd_ - start);
    if (line.substr(0, key.size()) != key ||
        (line.size() > key.size() && line[key.size()] != ' '))
        return fail("expected record '" + key_ + "'");
    cursor_ = start + key.size();
    return true;
}

bool
RecordReader::token(std::string_view *tok)
{
    ++valueNo_;
    if (!hasMore())
        return fail("too few values for '" + key_ + "'");
    // cursor_ sits on the space before the value.
    const std::string_view rest =
        text_.substr(cursor_ + 1, lineEnd_ - cursor_ - 1);
    *tok = rest.substr(0, rest.find(' '));
    cursor_ += 1 + tok->size();
    return true;
}

bool
RecordReader::endLine()
{
    return !hasMore() || fail("too many values for '" + key_ + "'");
}

bool
RecordReader::finish()
{
    if (!error_.empty())
        return false;
    if ((lineNo_ ? lineEnd_ + 1 : 0) >= text_.size())
        return true;
    ++lineNo_;
    return fail("unexpected data after the last record");
}

bool
RecordReader::decodeHex(std::string_view tok, std::string *out)
{
    const auto nibble = [](char c) {
        return c >= '0' && c <= '9'   ? c - '0'
               : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                      : -1;
    };
    if (tok.size() % 2)
        return false;
    out->resize(tok.size() / 2);
    for (std::size_t i = 0; i < out->size(); ++i) {
        const int hi = nibble(tok[2 * i]);
        const int lo = nibble(tok[2 * i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        (*out)[i] = static_cast<char>(hi << 4 | lo);
    }
    return true;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out->assign(std::istreambuf_iterator<char>(in), {});
    return true;
}

bool
writeFileAtomic(const std::string &path, std::string_view contents,
                std::string *why)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path dir = fs::path(path).parent_path();
    if (!dir.empty() && !fs::create_directories(dir, ec) && ec) {
        *why = strprintf("cannot create '%s': %s", dir.c_str(),
                         ec.message().c_str());
        return false;
    }
    // Private to this process and thread: concurrent writers of one
    // key never share, and so never tear, a temporary.
    const std::string tmp =
        path + strprintf(".tmp.%ld.%zx", static_cast<long>(::getpid()),
                         std::hash<std::thread::id>{}(
                             std::this_thread::get_id()));
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.close();
    if (!out)
        *why = strprintf("cannot write '%s'", tmp.c_str());
    else if (fs::rename(tmp, path, ec); ec)
        *why = strprintf("rename to '%s' failed: %s", path.c_str(),
                         ec.message().c_str());
    else
        return true;
    fs::remove(tmp, ec);
    return false;
}

} // namespace reno
