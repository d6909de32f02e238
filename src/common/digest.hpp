/**
 * @file
 * Content digests: an incremental 64-bit FNV-1a hasher used to derive
 * content-addressed keys (kernel source + seed + serialized machine
 * configuration) for the simulation result cache.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace reno
{

/** Incremental 64-bit FNV-1a hash. */
class Fnv64
{
  public:
    static constexpr std::uint64_t Offset = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t Prime = 0x100000001b3ULL;

    /** Absorb raw bytes. */
    Fnv64 &
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            hash_ ^= p[i];
            hash_ *= Prime;
        }
        return *this;
    }

    /** Absorb a string's bytes plus a length separator, so that
     *  ("ab","c") and ("a","bc") digest differently. */
    Fnv64 &
    update(std::string_view s)
    {
        update(s.data(), s.size());
        return update(s.size());
    }

    Fnv64 &update(const char *s) { return update(std::string_view(s)); }

    /** Absorb an integer's little-endian bytes. */
    Fnv64 &
    update(std::uint64_t v)
    {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(v >> (8 * i));
        return update(bytes, sizeof(bytes));
    }

    Fnv64 &update(bool b) { return update(std::uint64_t(b ? 1 : 0)); }

    std::uint64_t value() const { return hash_; }

    /** The digest as a fixed-width lowercase hex string. */
    std::string hex() const;

  private:
    std::uint64_t hash_ = Offset;
};

/** Format a 64-bit digest as 16 lowercase hex digits. */
std::string digestHex(std::uint64_t digest);

} // namespace reno
