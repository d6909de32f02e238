/**
 * @file
 * Recycling arena for dynamic instructions. The timing model used to
 * pay one heap allocation (and one free) per fetched instruction; the
 * arena hands out slots from slab allocations and recycles retired
 * instructions, so steady-state fetch -- and the squash/replay churn
 * of violation and misintegration recovery -- never touches the
 * allocator. Slots live as long as the arena; pointers handed out
 * stay valid across acquire/release cycles.
 */
#pragma once

#include <memory>
#include <vector>

#include "uarch/dyninst.hpp"

namespace reno
{

class InstArena
{
  public:
    /** Slots per slab; one slab covers a full ROB + fetch buffer for
     *  the paper's machines, so most runs allocate exactly twice. */
    static constexpr std::size_t SlabSize = 256;

    InstArena() = default;
    InstArena(const InstArena &) = delete;
    InstArena &operator=(const InstArena &) = delete;

    /**
     * Hand out an instruction slot with all rename/issue/retire state
     * cleared (resetForReplay semantics). The caller initializes the
     * identity and fetch-group fields.
     */
    DynInst *
    acquire()
    {
        if (free_.empty())
            grow();
        DynInst *d = free_.back();
        free_.pop_back();
        d->resetForReplay();
        return d;
    }

    /** Return a slot for reuse. The pointer must have come from
     *  acquire() and must no longer be referenced by the pipeline. */
    void
    release(DynInst *d)
    {
        free_.push_back(d);
    }

    std::size_t slabCount() const { return slabs_.size(); }

  private:
    void
    grow()
    {
        slabs_.push_back(std::make_unique<DynInst[]>(SlabSize));
        DynInst *base = slabs_.back().get();
        free_.reserve(free_.size() + SlabSize);
        for (std::size_t i = SlabSize; i-- > 0;)
            free_.push_back(base + i);
    }

    std::vector<std::unique_ptr<DynInst[]>> slabs_;
    std::vector<DynInst *> free_;
};

} // namespace reno
