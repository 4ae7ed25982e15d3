/**
 * @file
 * ControlPlaneLog: optional mirror of every message delivered on the
 * control bus, for observability.
 *
 * Each ControlLink that is attached to the log owns a private per-link
 * event buffer, registered once at wiring time (single-threaded). At
 * runtime a link appends only to its own buffer, so per-server senders
 * (SMs, CAPs, MMs) can mirror from worker threads without contention or
 * nondeterminism; merged() produces one deterministic, thread-count-
 * independent ordering afterwards by sorting on (tick, link name, seq).
 *
 * Disabled (detached) links skip mirroring entirely, so the log is
 * strictly pay-for-use and the default build is bit-identical to one
 * without it.
 */

#ifndef NPS_BUS_CONTROL_LOG_H
#define NPS_BUS_CONTROL_LOG_H

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bus/messages.h"
#include "ckpt/snapshot.h"
#include "util/chunked_vector.h"

namespace nps {
namespace bus {

/** Per-link event buffer: chunk-pooled so high-rate mirroring appends
 * without vector doubling/moves, and element addresses stay stable for
 * the merged view (util/chunked_vector.h). */
using EventBuffer = util::ChunkedVector<ControlEvent, 256>;

/**
 * The event log of the whole control plane.
 */
class ControlPlaneLog
{
  public:
    /** One link's registration: its name and its private buffer. */
    struct LinkLog
    {
        std::string name;
        ChannelKind kind = ChannelKind::Budget;
        EventBuffer events;
    };

    /** One entry of the merged view. */
    struct Entry
    {
        const LinkLog *link = nullptr;
        const ControlEvent *event = nullptr;
    };

    /**
     * Register link @p name and return its private event buffer. Must be
     * called at wiring time, before the engine runs — registration is
     * not thread-safe (appending to the returned buffer from the owning
     * sender is). Registering the same name twice is fatal.
     */
    EventBuffer *channel(const std::string &name, ChannelKind kind);

    /** Number of registered links. */
    size_t numLinks() const { return links_.size(); }

    /** Total mirrored events across all links. */
    size_t totalEvents() const;

    /** The registered links, in registration order. */
    const std::vector<std::unique_ptr<LinkLog>> &links() const
    {
        return links_;
    }

    /**
     * All events merged into one deterministic order: by (tick, link
     * name, seq). Independent of registration order, engine thread
     * count, and scheduling.
     */
    std::vector<Entry> merged() const;

    /** Write the merged view as CSV (tick,link,kind,seq,...). */
    void writeCsv(std::ostream &out) const;

    /** Serialize every link's buffered events (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const;

    /**
     * Restore buffered events into the already-registered links, matched
     * by name. Fatal when the snapshot's link set differs from the
     * rebuilt wiring (topology/config mismatch).
     */
    void loadState(ckpt::SectionReader &r);

  private:
    std::vector<std::unique_ptr<LinkLog>> links_;
};

} // namespace bus
} // namespace nps

#endif // NPS_BUS_CONTROL_LOG_H
