/**
 * @file
 * The shared-memory ring protocol (paper Fig 3 and §3.4).
 *
 * One 4 kB page is divided into a header of producer/consumer counters
 * and a power-of-two array of fixed-size slots. Requests and responses
 * share the slot array, indexed by their own producer counters — the
 * frontend's flow control (never more outstanding requests than slots)
 * keeps them from colliding, exactly as in Xen's io/ring.h. The
 * req_event/rsp_event fields implement notification suppression: a
 * producer only notifies when the consumer asked to be woken for the
 * range just published.
 *
 * All counter accesses go through Cstruct little-endian accessors on the
 * shared page — this is the layout both ends must agree on, and it is
 * the one place the paper's cstruct extension earns its keep.
 */

#ifndef MIRAGE_HYPERVISOR_RING_H
#define MIRAGE_HYPERVISOR_RING_H

#include <string>

#include "base/cstruct.h"
#include "base/result.h"
#include "base/types.h"
#include "sim/poller.h"
#include "trace/metrics.h"

namespace mirage::check {
class Checker;
} // namespace mirage::check

namespace mirage::xen {

/** Geometry shared by both ring ends. */
struct RingLayout
{
    static constexpr std::size_t headerBytes = 64;
    static constexpr std::size_t slotBytes = 64;
    static constexpr u32 slotCount = 32; //!< power of two

    // Header field offsets (little-endian, as on x86 Xen).
    static constexpr std::size_t offReqProd = 0;
    static constexpr std::size_t offReqEvent = 4;
    static constexpr std::size_t offRspProd = 8;
    static constexpr std::size_t offRspEvent = 12;

    static constexpr std::size_t
    pageBytes()
    {
        return headerBytes + std::size_t(slotCount) * slotBytes;
    }
};

/** Accessors over the shared page, common to both ends. */
class SharedRing
{
  public:
    /** Wrap an existing shared page (must be >= pageBytes). */
    explicit SharedRing(Cstruct page);

    /** Zero the header; called once by the frontend before attach. */
    void init();

    u32 reqProd() const { return page_.getLe32(RingLayout::offReqProd); }
    u32 reqEvent() const { return page_.getLe32(RingLayout::offReqEvent); }
    u32 rspProd() const { return page_.getLe32(RingLayout::offRspProd); }
    u32 rspEvent() const { return page_.getLe32(RingLayout::offRspEvent); }

    void setReqProd(u32 v) { page_.setLe32(RingLayout::offReqProd, v); }
    void setReqEvent(u32 v) { page_.setLe32(RingLayout::offReqEvent, v); }
    void setRspProd(u32 v) { page_.setLe32(RingLayout::offRspProd, v); }
    void setRspEvent(u32 v) { page_.setLe32(RingLayout::offRspEvent, v); }

    /** View of slot @p index (counter value; masked internally). */
    Cstruct slot(u32 index) const;

    const Cstruct &page() const { return page_; }

  private:
    Cstruct page_;
};

/**
 * Guest (frontend) end: produces requests, consumes responses.
 */
class FrontRing
{
  public:
    explicit FrontRing(Cstruct page);

    /** Slots available for new requests under flow control. */
    u32 freeRequests() const;

    /**
     * Claim the next request slot. Fails with Exhausted when the ring
     * is full — the caller must back off, never overwrite (§3.4).
     */
    Result<Cstruct> startRequest();

    /**
     * Publish claimed requests to the backend, waking its linked
     * poller (see wakeOnPush).
     * @return true when the backend must be notified.
     */
    bool pushRequests();

    /**
     * Link the poller that consumes this ring's requests: every push
     * that publishes something calls its wake(). Null unlinks; the
     * link also clears itself when either side is destroyed.
     */
    void wakeOnPush(sim::Poller *consumer) { wake_.bind(consumer); }

    /** Responses published but not yet consumed (one read of the
     *  shared rsp_prod). */
    u32 unconsumedResponses() const;

    /** Consume the next response slot, if one is published. */
    Result<Cstruct> takeResponse();

    /**
     * Consume the next of the responses an unconsumedResponses() call
     * counted, without reading rsp_prod again: a drain pass reads the
     * producer index once and takes that many (Xen's RING_GET_RESPONSE
     * loop up to one snapshot of rsp_prod).
     */
    Cstruct nextResponse();

    /**
     * Re-arm notifications after draining: sets rsp_event and re-checks
     * for responses that raced in.
     * @return true when more responses are already waiting.
     */
    bool finalCheckForResponses();

    /**
     * Park rsp_event beyond any index the backend can publish (it never
     * has more responses outstanding than the slot count), so response
     * pushes stop notifying. A frontend polling its rings (sim::Poller)
     * uses this until it goes idle, then re-arms with
     * finalCheckForResponses().
     */
    void suppressResponseEvents();

    /**
     * Mirror push/take activity into `<prefix>.req_pushed` and
     * `<prefix>.rsp_taken` counters (aggregated when several rings
     * share a prefix).
     */
    void attachMetrics(trace::MetricsRegistry &reg,
                       const std::string &prefix);

    /**
     * Audit this end against @p ck's shadow of the shared page (both
     * ends of a ring share one shadow). Nullptr detaches; a disabled
     * checker costs one pointer test per operation.
     */
    void attachChecker(check::Checker *ck, const char *name);

    /**
     * Adopt the counters already published in the header — a
     * reconnecting frontend resumes where the previous instance
     * stopped, with everything published considered consumed.
     */
    void resume();

  private:
    SharedRing ring_;
    u32 req_prod_pvt_ = 0;
    u32 rsp_cons_ = 0;
    sim::PollerLink wake_;
    trace::Counter *c_req_pushed_ = nullptr;
    trace::Counter *c_rsp_taken_ = nullptr;
    check::Checker *checker_ = nullptr;
    u32 check_id_ = 0;
};

/**
 * Backend end: consumes requests, produces responses.
 */
class BackRing
{
  public:
    explicit BackRing(Cstruct page);

    u32 unconsumedRequests() const;
    Result<Cstruct> takeRequest();

    Result<Cstruct> startResponse();
    /** Publish responses, waking the linked poller (wakeOnPush).
     *  @return true when the frontend must be notified. */
    bool pushResponses();

    /** Link the poller that consumes this ring's responses (see
     *  FrontRing::wakeOnPush). */
    void wakeOnPush(sim::Poller *consumer) { wake_.bind(consumer); }

    /** Re-arm request notifications; true when requests raced in. */
    bool finalCheckForRequests();

    /**
     * Park req_event beyond any index the producer can publish (flow
     * control caps it at cons + slotCount), so request pushes stop
     * notifying. A backend that polls its request ring on demand —
     * netback harvesting posted rx buffers — uses this until it is
     * starved, then re-arms with finalCheckForRequests().
     */
    void suppressRequestEvents();

    /** Mirror into `<prefix>.req_taken` / `<prefix>.rsp_pushed`. */
    void attachMetrics(trace::MetricsRegistry &reg,
                       const std::string &prefix);

    /** See FrontRing::attachChecker. */
    void attachChecker(check::Checker *ck, const char *name);

    /** Adopt published counters (backend reconnect). */
    void resume();

  private:
    SharedRing ring_;
    u32 req_cons_ = 0;
    u32 rsp_prod_pvt_ = 0;
    sim::PollerLink wake_;
    trace::Counter *c_req_taken_ = nullptr;
    trace::Counter *c_rsp_pushed_ = nullptr;
    check::Checker *checker_ = nullptr;
    u32 check_id_ = 0;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_RING_H
