#include "pvboot/io_pages.h"

namespace mirage::pvboot {

IoPagePool::IoPagePool(std::size_t capacity_pages)
    : capacity_(capacity_pages),
      alive_(std::make_shared<IoPagePool *>(this))
{
}

IoPagePool::~IoPagePool()
{
    *alive_ = nullptr;
}

Result<Cstruct>
IoPagePool::allocPage()
{
    if (in_use_ >= capacity_) {
        exhaustions_++;
        return exhaustedError("I/O page pool exhausted");
    }
    in_use_++;
    high_water_ = std::max(high_water_, in_use_);
    allocations_++;
    auto buf = Buffer::alloc(pageSize);
    buf->setReleaseHook([alive = alive_](Buffer &) {
        IoPagePool *pool = *alive;
        if (!pool)
            return; // page outlived the pool (held by a grant entry)
        pool->in_use_--;
        pool->recycled_++;
        pool->listeners_.fire();
    });
    return Cstruct(std::move(buf));
}

u64
IoPagePool::addRecycleListener(std::function<void()> fn)
{
    return listeners_.add(std::move(fn));
}

void
IoPagePool::removeRecycleListener(u64 token)
{
    listeners_.remove(token);
}

} // namespace mirage::pvboot
