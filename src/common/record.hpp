/**
 * @file
 * The one on-disk text grammar of the campaign cache directory --
 * result-cache entries, sampled-simulation checkpoints, functional
 * profiles -- and the atomic file store they share.
 *
 * A file is a sequence of records, one per line: `key v1 v2 ...\n`,
 * with exactly one space before each value. Integers are decimal,
 * bools `0`/`1`, byte strings lowercase hex (possibly empty). A key
 * may contain spaces: a format tag is a record with no values.
 *
 * The reader accepts exactly what the writer produces and rejects
 * anything else with a named reason: a sign on an unsigned value,
 * padding, a leading zero (or `-0`), trailing characters, overflow,
 * a line without its newline, more or fewer values than asked for.
 * It never sizes an allocation from a count read from the file: a
 * vector takes the rest of its line, and the caller checks it
 * against any count the record carries.
 */
#pragma once

#include <charconv>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>

namespace reno
{

/** A byte string (std::string or std::vector<std::uint8_t>) encoded
 *  as lowercase hex; reading decodes into a std::string. */
template <typename B>
struct Hex {
    B &bytes;
};
template <typename B>
Hex(B &) -> Hex<B>;

/** Appends records in the grammar above. */
class RecordWriter
{
  public:
    /** Append `key v1 v2 ...\n`; vectors and arrays expand to their
     *  elements. */
    template <typename... Ts>
    void
    put(std::string_view key, const Ts &...values)
    {
        out_ += key;
        (append(values), ...);
        out_ += '\n';
    }

    const std::string &str() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    template <typename T>
    void
    append(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out_ += v ? " 1" : " 0";
        } else if constexpr (std::is_integral_v<T>) {
            char buf[24] = {' '};
            out_.append(buf, std::to_chars(buf + 1, std::end(buf), v).ptr);
        } else if constexpr (std::is_convertible_v<T, std::string_view>) {
            (out_ += ' ') += std::string_view(v);
        } else if constexpr (requires { v.bytes; }) {
            appendHex(v.bytes.data(), v.bytes.size());
        } else {
            for (const auto &e : v)
                append(e);
        }
    }

    void appendHex(const void *data, std::size_t len);

    std::string out_;
};

/** Reads records in the grammar above, one line per get(). The first
 *  failure sticks and is kept in error() as "line N: <reason>". */
class RecordReader
{
  public:
    explicit RecordReader(std::string_view text) : text_(text) {}

    /**
     * Read the next line as record @p key holding exactly @p values:
     * integers, bools, std::string (one token), Hex, C arrays (N
     * values) or, last, a std::vector (the rest of the line).
     */
    template <typename... Ts>
    bool
    get(std::string_view key, Ts &&...values)
    {
        return error_.empty() && beginLine(key) &&
               (value(values) && ...) && endLine();
    }

    /** True when every line has been read; otherwise records the
     *  trailing data as the error. */
    bool finish();

    const std::string &error() const { return error_; }

  private:
    bool beginLine(std::string_view key);
    bool endLine();
    /** Next value token of the current line; false (recording the
     *  reason) when the line has no more. */
    bool token(std::string_view *tok);
    bool fail(const std::string &reason);
    bool malformed();
    bool hasMore() const { return cursor_ < lineEnd_; }

    template <typename T>
    bool
    value(T &v)
    {
        std::string_view tok;
        if constexpr (std::is_same_v<T, bool>) {
            if (!token(&tok))
                return false;
            if (tok != "0" && tok != "1")
                return malformed();
            v = tok == "1";
        } else if constexpr (std::is_integral_v<T>) {
            return token(&tok) &&
                   (parseDecimal(tok, &v) || malformed());
        } else if constexpr (std::is_same_v<T, std::string>) {
            if (!token(&tok))
                return false;
            v.assign(tok);
        } else if constexpr (requires { v.bytes; }) {
            return token(&tok) &&
                   (decodeHex(tok, &v.bytes) || malformed());
        } else if constexpr (std::is_array_v<T>) {
            for (auto &e : v)
                if (!value(e))
                    return false;
        } else {
            v.clear();
            while (hasMore())
                if (!value(v.emplace_back()))
                    return false;
        }
        return true;
    }

    template <typename T>
    static bool
    parseDecimal(std::string_view tok, T *v)
    {
        const char *first = tok.data();
        const char *last = first + tok.size();
        const char *digits = first + (std::is_signed_v<T> &&
                                      !tok.empty() && tok[0] == '-');
        // One spelling per value: at least one digit, no leading
        // zero, no "-0". from_chars refuses signs on unsigned types,
        // whitespace and overflow; `end` catches trailing characters.
        if (digits == last ||
            (*digits == '0' && (last - digits > 1 || digits != first)))
            return false;
        const auto [end, ec] = std::from_chars(first, last, *v);
        return ec == std::errc() && end == last;
    }

    static bool decodeHex(std::string_view tok, std::string *out);

    std::string_view text_;
    std::size_t lineEnd_ = 0;  //!< offset of the current line's '\n'
    std::size_t cursor_ = 0;   //!< next unread character
    std::size_t lineNo_ = 0;
    std::string key_;  //!< of the current line
    unsigned valueNo_ = 0;
    std::string error_;
};

/** Read the whole file at @p path into @p out; false if it cannot be
 *  opened. */
bool readFile(const std::string &path, std::string *out);

/**
 * Write @p contents to @p path so that no reader ever sees a partial
 * file: create the parent directory, write a temporary name private
 * to this process and thread (`<path>.tmp.<pid>.<thread>`), and rename
 * it over @p path only after the write and close succeed. On failure
 * the temporary is removed and @p why names the reason.
 */
bool writeFileAtomic(const std::string &path, std::string_view contents,
                     std::string *why);

} // namespace reno
