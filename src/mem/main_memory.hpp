/**
 * @file
 * Main memory behind a contended bus, as the terminal MemLevel of a
 * hierarchy. Reproduces the paper's model (section 4.1): a fixed DRAM
 * access latency plus the block-transfer time over a bus narrower and
 * slower than the core, serialized on a single bus-free cycle.
 */
#pragma once

#include <cstdint>
#include <string>

#include "mem/mem_level.hpp"

namespace reno
{

/** Main-memory + bus timing parameters. */
struct MemoryParams {
    unsigned accessLatency = 100;  //!< DRAM access cycles
    unsigned busBytes = 16;        //!< bus width
    unsigned busClockDivider = 4;  //!< bus runs at core clock / divider
};

/** The terminal level: always hits, pays latency + bus transfer. */
class MainMemory final : public MemLevel
{
  public:
    /**
     * @param transfer_bytes  bytes moved per request: the block size
     *                        of the cache level directly above.
     * fatal() on a zero bus width or divider.
     */
    MainMemory(const MemoryParams &params, unsigned transfer_bytes);

    Cycle access(Addr addr, Cycle now, MemAccessKind kind) override;
    /** Nothing to warm: the bus is timing state and settles before
     *  measurement. */
    void warmAccess(Addr, MemAccessKind) override {}
    bool probe(Addr) const override { return true; }
    void flush() override { busFreeCycle_ = 0; }
    const std::string &name() const override { return name_; }

    /** Drop in-flight timing state (the bus). */
    void settle() { busFreeCycle_ = 0; }

    void
    copyStateFrom(const MainMemory &other)
    {
        busFreeCycle_ = other.busFreeCycle_;
        reads_ = other.reads_;
        writebacks_ = other.writebacks_;
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    MemoryParams params_;
    unsigned transferCycles_;
    std::string name_ = "memory";
    Cycle busFreeCycle_ = 0;
    std::uint64_t reads_ = 0;       //!< demand + prefetch fills
    std::uint64_t writebacks_ = 0;  //!< dirty victims drained
};

} // namespace reno
