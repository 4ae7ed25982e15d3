/**
 * @file
 * PerServerLevel: a per-server control level of self-contained
 * controller objects (electrical cappers, memory managers) stepped as one
 * range kernel.
 *
 * The objects sit contiguously in slot (== server id) order inside the
 * level and are called directly, so a tick costs one virtual kernel call
 * per worker block instead of one per server. The level is sized once at
 * wiring time; slots never move, so callers may keep pointers to them.
 */

#ifndef NPS_CONTROLLERS_PER_SERVER_LEVEL_H
#define NPS_CONTROLLERS_PER_SERVER_LEVEL_H

#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "util/logging.h"

namespace nps {
namespace controllers {

template <class Ctl>
class PerServerLevel : public sim::Kernel
{
  public:
    /**
     * @param name     Kernel name (the roster entry, e.g. "CAP[*]").
     * @param period   Control interval shared by every slot.
     * @param capacity Number of slots add() may create.
     */
    PerServerLevel(std::string name, unsigned period, size_t capacity)
        : name_(std::move(name)), period_(period)
    {
        ctls_.reserve(capacity);
    }

    /** Construct the next slot in place from @p args. */
    template <class... Args>
    Ctl &
    add(Args &&...args)
    {
        if (ctls_.size() == ctls_.capacity())
            util::fatal("%s: more slots than the %zu reserved",
                        name_.c_str(), ctls_.capacity());
        return ctls_.emplace_back(std::forward<Args>(args)...);
    }

    /** The controller in slot @p i. */
    Ctl &at(size_t i) { return ctls_[i]; }

    /// @name sim::Kernel
    /// @{
    const std::string &name() const override { return name_; }
    unsigned period() const override { return period_; }
    size_t slots() const override { return ctls_.size(); }

    void
    observeRange(size_t tick, size_t lo, size_t hi) override
    {
        for (size_t i = lo; i < hi; ++i)
            ctls_[i].observe(tick);
    }

    void
    stepRange(size_t tick, size_t lo, size_t hi) override
    {
        for (size_t i = lo; i < hi; ++i)
            ctls_[i].step(tick);
    }
    /// @}

  private:
    std::string name_;
    unsigned period_;
    std::vector<Ctl> ctls_;
};

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_PER_SERVER_LEVEL_H
