#include "base/listeners.h"

namespace mirage {

u64
ListenerList::add(std::function<void()> fn)
{
    u64 token = next_token_++;
    listeners_.push_back(Listener{token, std::move(fn)});
    return token;
}

void
ListenerList::remove(u64 token)
{
    for (Listener &l : listeners_)
        if (l.token == token)
            l.token = 0;
    if (firing_ == 0)
        std::erase_if(listeners_,
                      [](const Listener &l) { return l.token == 0; });
}

void
ListenerList::fire()
{
    // Removal only zeroes the token until the outermost loop ends, and
    // the running closure is held in a local so growth cannot move it.
    firing_++;
    for (std::size_t i = 0, n = listeners_.size(); i < n; i++) {
        if (listeners_[i].token == 0 || !listeners_[i].fn)
            continue; // removed, or running further up this stack
        std::function<void()> fn = std::move(listeners_[i].fn);
        fn();
        if (listeners_[i].token != 0)
            listeners_[i].fn = std::move(fn);
    }
    if (--firing_ == 0)
        std::erase_if(listeners_,
                      [](const Listener &l) { return l.token == 0; });
}

} // namespace mirage
