/**
 * @file
 * A list of callbacks that listeners may change while it fires: a
 * listener may remove any listener (itself included) or add new ones
 * from inside its own call, and firing never copies the list.
 */

#ifndef MIRAGE_BASE_LISTENERS_H
#define MIRAGE_BASE_LISTENERS_H

#include <functional>
#include <vector>

#include "base/types.h"

namespace mirage {

class ListenerList
{
  public:
    /** Subscribe @p fn. @return a token for remove(). */
    u64 add(std::function<void()> fn);

    /**
     * Drop a listener. Safe for tokens already removed, and from inside
     * a listener (the removed one is not called again).
     */
    void remove(u64 token);

    /**
     * Call every listener once. Listeners added meanwhile wait for the
     * next fire; removed ones are skipped.
     */
    void fire();

  private:
    struct Listener
    {
        u64 token; //!< 0 once removed while listeners were running
        std::function<void()> fn;
    };

    u64 next_token_ = 1;
    std::vector<Listener> listeners_;
    u32 firing_ = 0; //!< nesting depth of fire() loops in progress
};

} // namespace mirage

#endif // MIRAGE_BASE_LISTENERS_H
