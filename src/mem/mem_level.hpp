/**
 * @file
 * The MemLevel interface: one node of a composable memory hierarchy.
 *
 * A level is anything that can answer "when is the data for this
 * address available?": a cache, main memory behind a bus, or a test
 * stub. Levels chain through plain MemLevel pointers, so a hierarchy
 * is a declaratively-configured stack of arbitrary depth instead of
 * the fixed I$/D$/L2 chain the seed wired through void* function
 * pointers.
 *
 * Levels carry no data (data lives in SparseMemory); an access returns
 * the cycle at which its data is available.
 */
#pragma once

#include <string>

#include "common/types.hpp"

namespace reno
{

/** Why an access reaches a level. */
enum class MemAccessKind : std::uint8_t {
    Read,       //!< demand load / instruction fetch
    Write,      //!< demand store (write-allocate)
    Prefetch,   //!< fill issued by an upper level's prefetcher
    Writeback,  //!< dirty victim from an upper level (non-allocating)
};

/** One level of the memory hierarchy. */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Access @p addr at @p now; returns the cycle the data is ready
     * (for Writeback: the cycle the victim has drained).
     */
    virtual Cycle access(Addr addr, Cycle now, MemAccessKind kind) = 0;

    /**
     * Functional-warming access: the state change access() makes,
     * without timing. A level passes its own next-level requests on
     * as warm accesses, in the order access() would issue them.
     */
    virtual void warmAccess(Addr addr, MemAccessKind kind) = 0;

    /** True iff @p addr would hit right now (no state change). */
    virtual bool probe(Addr addr) const = 0;

    /** Invalidate all state, including in-flight timing. */
    virtual void flush() = 0;

    /** Display name (stats, checkpoint labels). */
    virtual const std::string &name() const = 0;
};

} // namespace reno
