#include "uarch/perf_model.hh"

#include <cmath>
#include <numeric>

#include "vm/interp.hh"

namespace rigor {
namespace uarch {

PerfModel::PerfModel(PerfModelConfig config)
    : cfg(config), dispatchPred(12, config.dispatchHistoryOps),
      caches(CacheHierarchy::makeDefault()),
      icache({32 * 1024, 64, 8})
{
    if (cfg.predictor == PerfModelConfig::Predictor::Bimodal)
        branchPred = std::make_unique<BimodalPredictor>();
    else
        branchPred = std::make_unique<GsharePredictor>();
}

void
PerfModel::consume(std::span<const vm::Record> records,
                   const vm::InterpStats &stats) noexcept
{
    using Kind = vm::Record::Kind;
    for (const vm::Record &r : records) {
        switch (r.kind) {
          case Kind::Fetch:
            if (!cfg.modelCaches)
                break;
            ++counters.l1iAccesses;
            if (!icache.access(r.addr)) {
                ++counters.l1iMisses;
                penaltyCycles += cfg.l1iMissPenalty;
            }
            break;
          case Kind::Dispatch:
            if (!cfg.modelBranches)
                break;
            if (!dispatchPred.predictAndUpdate(
                    static_cast<uint16_t>(r.op))) {
                ++counters.dispatchMisses;
                penaltyCycles += cfg.dispatchMissPenalty;
            }
            break;
          case Kind::Branch:
            ++counters.branches;
            if (!cfg.modelBranches)
                break;
            if (!branchPred->predictAndUpdate(r.site, r.flag)) {
                ++counters.branchMisses;
                penaltyCycles += cfg.branchMissPenalty;
            }
            break;
          case Kind::Mem:
            memAccess(r.addr, r.size, r.flag);
            break;
          case Kind::Alloc:
            // Allocation writes the header line (write-allocate
            // traffic).
            memAccess(r.addr, r.size > 64 ? 64 : r.size, true);
            break;
          case Kind::Guard:
            // Deopt path: modelled as a mispredicted branch.
            penaltyCycles += cfg.branchMissPenalty;
            break;
        }
    }
    // Compilation work is in `uops`: it retires like ordinary
    // instructions and shows up as the warmup spike in per-iteration
    // times.
    counters.bytecodes = stats.bytecodes;
    counters.instructions = stats.uops;
    counters.dispatches = std::accumulate(stats.perOpDispatched.begin(),
                                          stats.perOpDispatched.end(),
                                          uint64_t{0});
    counters.allocations = stats.allocations;
    counters.allocatedBytes = stats.objectBytes;
}

void
PerfModel::memAccess(uint64_t addr, uint32_t size, bool is_write)
{
    if (is_write)
        ++counters.stores;
    else
        ++counters.loads;
    if (!cfg.modelCaches)
        return;
    // Touch every line the access spans (usually one).
    uint64_t first = addr / 64;
    uint64_t last = (addr + (size ? size - 1 : 0)) / 64;
    for (uint64_t line = first; line <= last; ++line) {
        ++counters.l1dAccesses;
        HitLevel level = caches.access(line * 64);
        // An L1 hit adds no latency: skipping its `+= 0.0` is exact,
        // as penaltyCycles is never -0.0. The sum stays in record
        // order, as it is a double.
        if (level == HitLevel::L1)
            continue;
        ++counters.l1dMisses;
        counters.l2Misses += level >= HitLevel::Llc;
        counters.llcMisses += level == HitLevel::Dram;
        penaltyCycles += cfg.memOverlapFactor * caches.latency(level);
    }
}

CounterSet
PerfModel::snapshot() const
{
    CounterSet out = counters;
    out.cycles = static_cast<uint64_t>(
        std::llround(static_cast<double>(counters.instructions) /
                         cfg.issueWidth +
                     penaltyCycles));
    return out;
}

void
PerfModel::reset()
{
    counters = {};
    penaltyCycles = 0.0;
    branchPred->reset();
    dispatchPred.reset();
    caches.reset();
    icache.reset();
}

} // namespace uarch
} // namespace rigor
