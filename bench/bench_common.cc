#include "bench/bench_common.hh"

#include <cstdio>

namespace rigor {
namespace bench {

harness::RunnerConfig
defaultConfig(vm::Tier tier)
{
    harness::RunnerConfig cfg;
    cfg.invocations = 6;
    cfg.iterations = 15;
    cfg.tier = tier;
    cfg.jitThreshold = 4000;
    cfg.seed = 0x5eed;
    return cfg;
}

harness::RunResult
runTier(const std::string &workload, vm::Tier tier)
{
    return harness::runExperiment(workload, defaultConfig(tier));
}

const std::vector<std::string> &
figureWorkloads()
{
    static const std::vector<std::string> subset = {
        "richards", "nbody", "sieve", "hashtable",
    };
    return subset;
}

const std::vector<std::string> &
mixGroups()
{
    static const std::vector<std::string> groups = {
        "load/store-fast", "const", "arith", "compare", "branch",
        "call/ret", "attr", "subscript", "global/name", "build/alloc",
        "iter", "other",
    };
    return groups;
}

namespace {

int
groupOf(vm::Op op)
{
    using vm::Op;
    switch (op) {
      case Op::LoadFast:
      case Op::StoreFast:
        return 0;
      case Op::LoadConst:
        return 1;
      case Op::BinaryAdd:
      case Op::BinarySub:
      case Op::BinaryMul:
      case Op::BinaryDiv:
      case Op::BinaryFloorDiv:
      case Op::BinaryMod:
      case Op::BinaryPow:
      case Op::BinaryAnd:
      case Op::BinaryOr:
      case Op::BinaryXor:
      case Op::BinaryLshift:
      case Op::BinaryRshift:
      case Op::UnaryNeg:
      case Op::UnaryNot:
      case Op::AddIntInt:
      case Op::SubIntInt:
      case Op::MulIntInt:
      case Op::AddFloatFloat:
      case Op::SubFloatFloat:
      case Op::MulFloatFloat:
        return 2;
      case Op::CompareEq:
      case Op::CompareNe:
      case Op::CompareLt:
      case Op::CompareLe:
      case Op::CompareGt:
      case Op::CompareGe:
      case Op::CompareIn:
      case Op::CompareNotIn:
      case Op::CompareLtIntInt:
      case Op::CompareLeIntInt:
      case Op::CompareGtIntInt:
      case Op::CompareGeIntInt:
      case Op::CompareEqIntInt:
        return 3;
      case Op::Jump:
      case Op::PopJumpIfFalse:
      case Op::PopJumpIfTrue:
      case Op::JumpIfFalseOrPop:
      case Op::JumpIfTrueOrPop:
        return 4;
      case Op::Call:
      case Op::Return:
        return 5;
      case Op::LoadAttr:
      case Op::StoreAttr:
      case Op::LoadAttrCached:
        return 6;
      case Op::LoadSubscr:
      case Op::StoreSubscr:
      case Op::DeleteSubscr:
        return 7;
      case Op::LoadGlobal:
      case Op::StoreGlobal:
      case Op::LoadName:
      case Op::StoreName:
      case Op::LoadGlobalCached:
        return 8;
      case Op::BuildList:
      case Op::BuildTuple:
      case Op::BuildDict:
      case Op::BuildSlice:
      case Op::MakeFunction:
      case Op::MakeClass:
        return 9;
      case Op::GetIter:
      case Op::ForIter:
      case Op::ForIterRange:
        return 10;
      default:
        return 11;
    }
}

} // namespace

std::vector<double>
mixFractions(const std::vector<uint64_t> &op_mix)
{
    std::vector<double> groups(mixGroups().size(), 0.0);
    uint64_t total = 0;
    for (size_t i = 0; i < op_mix.size(); ++i) {
        groups[static_cast<size_t>(
            groupOf(static_cast<vm::Op>(i)))] +=
            static_cast<double>(op_mix[i]);
        total += op_mix[i];
    }
    if (total) {
        for (auto &g : groups)
            g /= static_cast<double>(total);
    }
    return groups;
}

void
printHeader(const std::string &experiment_id, const std::string &claim)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s\n", experiment_id.c_str());
    std::printf("Reconstructed claim: %s\n", claim.c_str());
    std::printf("==============================================="
                "=====================\n\n");
}

} // namespace bench
} // namespace rigor
