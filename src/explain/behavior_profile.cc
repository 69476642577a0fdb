#include "explain/behavior_profile.hh"

#include "support/logging.hh"
#include "support/schema.hh"
#include "uarch/cache.hh"
#include "vm/code.hh"
#include "vm/interp.hh"

namespace rigor {
namespace explain {

namespace {

/** Read a uint64 field, tolerating its absence (older minor docs). */
uint64_t
getU64(const Json &obj, const std::string &key)
{
    const Json *v = obj.get(key);
    return v ? static_cast<uint64_t>(v->asInt()) : 0;
}

double
getDbl(const Json &obj, const std::string &key, double dflt)
{
    const Json *v = obj.get(key);
    return v ? v->asDouble() : dflt;
}

} // namespace

BehaviorProfile
buildProfile(const harness::RunResult &run,
             const harness::RunnerConfig &config)
{
    BehaviorProfile p;
    p.workload = run.workload;
    p.tier = vm::tierName(run.tier);
    p.invocations = run.invocations.size();
    for (const auto &inv : run.invocations)
        p.iterations += inv.samples.size();

    // Invocation-lifetime VM totals and per-op totals.
    constexpr size_t kNumOps =
        static_cast<size_t>(vm::Op::NumOpcodes);
    std::vector<OpProfile> ops(kNumOps);
    for (const auto &inv : run.invocations) {
        const vm::InterpStats &s = inv.vmStats;
        p.vm.bytecodes += s.bytecodes;
        p.vm.uops += s.uops;
        p.vm.calls += s.calls;
        p.vm.allocations += s.allocations;
        p.vm.allocatedBytes += s.allocatedBytes;
        p.vm.dictLookups += s.dictLookups;
        p.vm.guardFailures += s.guardFailures;
        p.vm.jitCompiles += s.jitCompiles;
        p.vm.jitCompileUops += s.jitCompileUops;
        for (size_t i = 0; i < kNumOps; ++i) {
            ops[i].count += s.perOp[i];
            ops[i].uops += s.perOpUops[i];
            ops[i].dispatched += s.perOpDispatched[i];
            ops[i].guardFailures += s.perOpGuards[i];
        }
    }
    for (size_t i = 0; i < kNumOps; ++i) {
        if (ops[i].count == 0 && ops[i].guardFailures == 0)
            continue;
        ops[i].op = vm::opName(static_cast<vm::Op>(i));
        p.ops.push_back(ops[i]);
    }

    // Iteration-window perf-counter totals (module setup excluded).
    p.counters = run.totalCounters();

    // Model parameters the runs were measured under. The cache
    // latencies are the (fixed) defaults of CacheHierarchy: the
    // runner has no knob for them, but the profile records them so a
    // future knob cannot silently invalidate archived attributions.
    uarch::MemoryLatencies lat;
    p.model.issueWidth = config.uarch.issueWidth;
    p.model.branchMissPenalty = config.uarch.branchMissPenalty;
    p.model.dispatchMissPenalty = config.uarch.dispatchMissPenalty;
    p.model.memOverlapFactor = config.uarch.memOverlapFactor;
    p.model.l1iMissPenalty = config.uarch.l1iMissPenalty;
    p.model.l2HitCycles = lat.l2Hit;
    p.model.llcHitCycles = lat.llcHit;
    p.model.dramCycles = lat.dram;
    p.model.cyclesPerMs = harness::kCyclesPerMs;
    return p;
}

Json
profileToJson(const BehaviorProfile &p)
{
    Json j = Json::object();
    j.set("schema", kBehaviorProfileSchema);
    j.set("version", kBehaviorProfileVersion);
    j.set("workload", p.workload);
    j.set("tier", p.tier);
    j.set("invocations", p.invocations);
    j.set("iterations", p.iterations);

    Json vm = Json::object();
    vm.set("bytecodes", p.vm.bytecodes);
    vm.set("uops", p.vm.uops);
    vm.set("calls", p.vm.calls);
    vm.set("allocations", p.vm.allocations);
    vm.set("allocated_bytes", p.vm.allocatedBytes);
    vm.set("dict_lookups", p.vm.dictLookups);
    vm.set("guard_failures", p.vm.guardFailures);
    vm.set("jit_compiles", p.vm.jitCompiles);
    vm.set("jit_compile_uops", p.vm.jitCompileUops);
    j.set("vm", vm);

    // Compact row-per-opcode form: [name, count, uops, dispatched,
    // guard_failures]; column meaning is fixed by the schema version.
    Json ops = Json::array();
    for (const auto &op : p.ops) {
        Json row = Json::array();
        row.push(op.op);
        row.push(op.count);
        row.push(op.uops);
        row.push(op.dispatched);
        row.push(op.guardFailures);
        ops.push(row);
    }
    j.set("ops", ops);

    const uarch::CounterSet &c = p.counters;
    Json counters = Json::object();
    counters.set("bytecodes", c.bytecodes);
    counters.set("instructions", c.instructions);
    counters.set("cycles", c.cycles);
    counters.set("branches", c.branches);
    counters.set("branch_misses", c.branchMisses);
    counters.set("dispatches", c.dispatches);
    counters.set("dispatch_misses", c.dispatchMisses);
    counters.set("loads", c.loads);
    counters.set("stores", c.stores);
    counters.set("l1d_accesses", c.l1dAccesses);
    counters.set("l1d_misses", c.l1dMisses);
    counters.set("l1i_accesses", c.l1iAccesses);
    counters.set("l1i_misses", c.l1iMisses);
    counters.set("l2_misses", c.l2Misses);
    counters.set("llc_misses", c.llcMisses);
    counters.set("allocations", c.allocations);
    counters.set("allocated_bytes", c.allocatedBytes);
    j.set("counters", counters);

    Json model = Json::object();
    model.set("issue_width", p.model.issueWidth);
    model.set("branch_miss_penalty",
              static_cast<uint64_t>(p.model.branchMissPenalty));
    model.set("dispatch_miss_penalty",
              static_cast<uint64_t>(p.model.dispatchMissPenalty));
    model.set("mem_overlap_factor", p.model.memOverlapFactor);
    model.set("l1i_miss_penalty",
              static_cast<uint64_t>(p.model.l1iMissPenalty));
    model.set("l2_hit_cycles",
              static_cast<uint64_t>(p.model.l2HitCycles));
    model.set("llc_hit_cycles",
              static_cast<uint64_t>(p.model.llcHitCycles));
    model.set("dram_cycles",
              static_cast<uint64_t>(p.model.dramCycles));
    model.set("cycles_per_ms", p.model.cyclesPerMs);
    j.set("model", model);
    return j;
}

BehaviorProfile
profileFromJson(const Json &j)
{
    const Json *schema = j.get("schema");
    if (!schema ||
        schema->asString() != kBehaviorProfileSchema)
        fatal("not a %s document", kBehaviorProfileSchema);
    const Json *version = j.get("version");
    if (!version || version->asInt() != kBehaviorProfileVersion)
        fatal("behavior profile version %lld; this build reads "
              "version %d",
              version ? static_cast<long long>(version->asInt())
                      : 0LL,
              kBehaviorProfileVersion);

    BehaviorProfile p;
    p.workload = j.at("workload").asString();
    p.tier = j.at("tier").asString();
    // Round-trip through tierFromName so an unknown tier string in an
    // archived profile fails loudly instead of misattributing.
    vm::tierFromName(p.tier);
    p.invocations = static_cast<uint64_t>(j.at("invocations").asInt());
    p.iterations = static_cast<uint64_t>(j.at("iterations").asInt());

    const Json &vm = j.at("vm");
    p.vm.bytecodes = getU64(vm, "bytecodes");
    p.vm.uops = getU64(vm, "uops");
    p.vm.calls = getU64(vm, "calls");
    p.vm.allocations = getU64(vm, "allocations");
    p.vm.allocatedBytes = getU64(vm, "allocated_bytes");
    p.vm.dictLookups = getU64(vm, "dict_lookups");
    p.vm.guardFailures = getU64(vm, "guard_failures");
    p.vm.jitCompiles = getU64(vm, "jit_compiles");
    p.vm.jitCompileUops = getU64(vm, "jit_compile_uops");

    const Json &ops = j.at("ops");
    for (size_t i = 0; i < ops.size(); ++i) {
        const Json &row = ops.at(i);
        OpProfile op;
        op.op = row.at(size_t{0}).asString();
        op.count = static_cast<uint64_t>(row.at(size_t{1}).asInt());
        op.uops = static_cast<uint64_t>(row.at(size_t{2}).asInt());
        op.dispatched =
            static_cast<uint64_t>(row.at(size_t{3}).asInt());
        op.guardFailures =
            static_cast<uint64_t>(row.at(size_t{4}).asInt());
        p.ops.push_back(op);
    }

    const Json &c = j.at("counters");
    p.counters.bytecodes = getU64(c, "bytecodes");
    p.counters.instructions = getU64(c, "instructions");
    p.counters.cycles = getU64(c, "cycles");
    p.counters.branches = getU64(c, "branches");
    p.counters.branchMisses = getU64(c, "branch_misses");
    p.counters.dispatches = getU64(c, "dispatches");
    p.counters.dispatchMisses = getU64(c, "dispatch_misses");
    p.counters.loads = getU64(c, "loads");
    p.counters.stores = getU64(c, "stores");
    p.counters.l1dAccesses = getU64(c, "l1d_accesses");
    p.counters.l1dMisses = getU64(c, "l1d_misses");
    p.counters.l1iAccesses = getU64(c, "l1i_accesses");
    p.counters.l1iMisses = getU64(c, "l1i_misses");
    p.counters.l2Misses = getU64(c, "l2_misses");
    p.counters.llcMisses = getU64(c, "llc_misses");
    p.counters.allocations = getU64(c, "allocations");
    p.counters.allocatedBytes = getU64(c, "allocated_bytes");

    const Json &m = j.at("model");
    p.model.issueWidth = getDbl(m, "issue_width", 4.0);
    p.model.branchMissPenalty =
        static_cast<uint32_t>(getU64(m, "branch_miss_penalty"));
    p.model.dispatchMissPenalty =
        static_cast<uint32_t>(getU64(m, "dispatch_miss_penalty"));
    p.model.memOverlapFactor =
        getDbl(m, "mem_overlap_factor", 0.45);
    p.model.l1iMissPenalty =
        static_cast<uint32_t>(getU64(m, "l1i_miss_penalty"));
    p.model.l2HitCycles =
        static_cast<uint32_t>(getU64(m, "l2_hit_cycles"));
    p.model.llcHitCycles =
        static_cast<uint32_t>(getU64(m, "llc_hit_cycles"));
    p.model.dramCycles =
        static_cast<uint32_t>(getU64(m, "dram_cycles"));
    p.model.cyclesPerMs = getDbl(m, "cycles_per_ms", 3.0e6);
    return p;
}

} // namespace explain
} // namespace rigor
