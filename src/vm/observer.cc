#include "vm/observer.hh"

namespace rigor {
namespace vm {

void ExecutionObserver::onBytecode(Op, uint32_t) {}
void ExecutionObserver::onDispatch(Op) {}
void ExecutionObserver::onBranch(uint64_t, bool) {}
void ExecutionObserver::onCodeFetch(uint64_t) {}
void ExecutionObserver::onMemAccess(uint64_t, uint32_t, bool) {}
void ExecutionObserver::onAlloc(uint64_t, uint32_t) {}
void ExecutionObserver::onAllocSite(uint64_t, uint32_t) {}
void ExecutionObserver::onJitCompile(uint32_t, uint64_t) {}
void ExecutionObserver::onGuardFailure(Op) {}

} // namespace vm
} // namespace rigor
