#include "hypervisor/ring.h"

#include "base/logging.h"
#include "check/check.h"

namespace mirage::xen {

namespace {

/** Enabled checker for a ring end, or nullptr (one pointer test). */
inline check::Checker *
liveChecker(check::Checker *ck)
{
    return (ck && ck->enabled()) ? ck : nullptr;
}

} // namespace

SharedRing::SharedRing(Cstruct page) : page_(std::move(page))
{
    CHECK_GE(page_.length(), RingLayout::pageBytes());
}

void
SharedRing::init()
{
    setReqProd(0);
    setReqEvent(1);
    setRspProd(0);
    setRspEvent(1);
}

Cstruct
SharedRing::slot(u32 index) const
{
    u32 masked = index & (RingLayout::slotCount - 1);
    return page_.sub(RingLayout::headerBytes +
                         std::size_t(masked) * RingLayout::slotBytes,
                     RingLayout::slotBytes);
}

// ---- FrontRing -----------------------------------------------------------

FrontRing::FrontRing(Cstruct page) : ring_(std::move(page)) {}

u32
FrontRing::freeRequests() const
{
    return RingLayout::slotCount - (req_prod_pvt_ - rsp_cons_);
}

Result<Cstruct>
FrontRing::startRequest()
{
    if (freeRequests() == 0)
        return exhaustedError("ring full");
    Cstruct s = ring_.slot(req_prod_pvt_);
    req_prod_pvt_++;
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringStartRequest(check_id_, req_prod_pvt_, rsp_cons_);
    return s;
}

bool
FrontRing::pushRequests()
{
    u32 old = ring_.reqProd();
    u32 now = req_prod_pvt_;
    // wmb(): the slot contents must be visible before the index —
    // a no-op in the single-threaded simulation but kept as the
    // protocol's ordering point.
    ring_.setReqProd(now);
    trace::bump(c_req_pushed_, now - old);
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringPublishRequests(check_id_, old, now);
    if (now != old)
        wake_.wake();
    // Notify iff the consumer's req_event lies in (old, now].
    return (now - ring_.reqEvent()) < (now - old);
}

u32
FrontRing::unconsumedResponses() const
{
    return ring_.rspProd() - rsp_cons_;
}

Result<Cstruct>
FrontRing::takeResponse()
{
    if (unconsumedResponses() == 0)
        return exhaustedError("no responses");
    return nextResponse();
}

Cstruct
FrontRing::nextResponse()
{
    DCHECK(unconsumedResponses() > 0);
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringConsumeResponse(check_id_, rsp_cons_, ring_.rspProd());
    Cstruct s = ring_.slot(rsp_cons_);
    rsp_cons_++;
    trace::bump(c_rsp_taken_);
    return s;
}

void
FrontRing::attachMetrics(trace::MetricsRegistry &reg,
                         const std::string &prefix)
{
    c_req_pushed_ = &reg.counter(prefix + ".req_pushed");
    c_rsp_taken_ = &reg.counter(prefix + ".rsp_taken");
}

void
FrontRing::attachChecker(check::Checker *ck, const char *name)
{
    checker_ = ck;
    // Register the shadow even while the checker is disabled so a later
    // enable() still finds counters snapshot at attach time.
    if (ck)
        check_id_ = ck->ringAttach(ring_.page().data(), name,
                                   RingLayout::slotCount, ring_.reqProd(),
                                   ring_.rspProd());
}

void
FrontRing::resume()
{
    req_prod_pvt_ = ring_.reqProd();
    rsp_cons_ = ring_.rspProd();
}

bool
FrontRing::finalCheckForResponses()
{
    ring_.setRspEvent(rsp_cons_ + 1);
    // mb(): re-check after arming, closing the wakeup race.
    return unconsumedResponses() > 0;
}

void
FrontRing::suppressResponseEvents()
{
    ring_.setRspEvent(rsp_cons_ + RingLayout::slotCount + 1);
}

// ---- BackRing ------------------------------------------------------------

BackRing::BackRing(Cstruct page) : ring_(std::move(page)) {}

u32
BackRing::unconsumedRequests() const
{
    return ring_.reqProd() - req_cons_;
}

Result<Cstruct>
BackRing::takeRequest()
{
    if (unconsumedRequests() == 0)
        return exhaustedError("no requests");
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringConsumeRequest(check_id_, req_cons_, ring_.reqProd());
    Cstruct s = ring_.slot(req_cons_);
    req_cons_++;
    trace::bump(c_req_taken_);
    return s;
}

Result<Cstruct>
BackRing::startResponse()
{
    // Responses reuse request slots; the frontend's flow control
    // guarantees a response slot is free once its request was consumed.
    Cstruct s = ring_.slot(rsp_prod_pvt_);
    rsp_prod_pvt_++;
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringStartResponse(check_id_, rsp_prod_pvt_, req_cons_);
    return s;
}

bool
BackRing::pushResponses()
{
    u32 old = ring_.rspProd();
    u32 now = rsp_prod_pvt_;
    ring_.setRspProd(now);
    trace::bump(c_rsp_pushed_, now - old);
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringPublishResponses(check_id_, old, now);
    if (now != old)
        wake_.wake();
    return (now - ring_.rspEvent()) < (now - old);
}

bool
BackRing::finalCheckForRequests()
{
    ring_.setReqEvent(req_cons_ + 1);
    return unconsumedRequests() > 0;
}

void
BackRing::suppressRequestEvents()
{
    ring_.setReqEvent(req_cons_ + RingLayout::slotCount + 1);
}

void
BackRing::attachMetrics(trace::MetricsRegistry &reg,
                        const std::string &prefix)
{
    c_req_taken_ = &reg.counter(prefix + ".req_taken");
    c_rsp_pushed_ = &reg.counter(prefix + ".rsp_pushed");
}

void
BackRing::attachChecker(check::Checker *ck, const char *name)
{
    checker_ = ck;
    if (ck)
        check_id_ = ck->ringAttach(ring_.page().data(), name,
                                   RingLayout::slotCount, ring_.reqProd(),
                                   ring_.rspProd());
}

void
BackRing::resume()
{
    req_cons_ = ring_.reqProd();
    rsp_prod_pvt_ = ring_.rspProd();
}

} // namespace mirage::xen
