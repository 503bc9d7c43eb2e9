#include "baseline/conventional.h"

namespace mirage::baseline {

void
SyscallLayer::chargeRecv(std::size_t bytes)
{
    const auto &c = sim::costs();
    dom_.vcpu().charge(c.syscall + c.copy(bytes));
    syscalls_++;
    bytes_copied_ += bytes;
}

void
SyscallLayer::chargeSend(std::size_t bytes)
{
    const auto &c = sim::costs();
    dom_.vcpu().charge(c.syscall + c.copy(bytes));
    syscalls_++;
    bytes_copied_ += bytes;
}

void
SyscallLayer::chargeProcessWake()
{
    dom_.vcpu().charge(sim::costs().processSwitch);
}

void
SyscallLayer::chargeSelect()
{
    dom_.vcpu().charge(sim::costs().selectDispatch);
    syscalls_++;
}

} // namespace mirage::baseline
