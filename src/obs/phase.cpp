#include "obs/phase.hpp"

#include "obs/metrics.hpp"

namespace reno::obs
{

std::atomic<Clock *> detail::phaseClock{nullptr};

void
enablePhaseAccounting(Clock *clock)
{
    detail::phaseClock.store(clock ? clock : &steadyClock(),
                             std::memory_order_relaxed);
}

void
disablePhaseAccounting()
{
    detail::phaseClock.store(nullptr, std::memory_order_relaxed);
}

void
detail::recordPhase(const std::string &name, std::uint64_t micros,
                    std::uint64_t insts)
{
    auto &registry = MetricsRegistry::instance();
    const std::string prefix = "phase." + name;
    registry.gauge(prefix + ".seconds")
        .add(static_cast<double>(micros) / 1e6);
    registry.counter(prefix + ".insts").inc(insts);
    registry.counter(prefix + ".count").inc();
}

} // namespace reno::obs
