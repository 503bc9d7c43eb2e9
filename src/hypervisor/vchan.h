/**
 * @file
 * vchan — the fast on-host inter-VM byte-stream transport (§3.5.1).
 *
 * Each direction is a multi-page shared-memory ring of bytes tracked by
 * producer/consumer counters. Once connected, communicating VMs move
 * data without hypervisor involvement other than event notifications,
 * and — per the paper's footnote — each side re-checks for outstanding
 * data before blocking, suppressing most notifications during streaming.
 */

#ifndef MIRAGE_HYPERVISOR_VCHAN_H
#define MIRAGE_HYPERVISOR_VCHAN_H

#include <functional>
#include <memory>

#include "base/cstruct.h"
#include "base/result.h"
#include "hypervisor/domain.h"

namespace mirage::xen {

class Vchan;

/** One side of a vchan. */
class VchanEndpoint
{
  public:
    /** Bytes waiting to be read. */
    std::size_t readAvailable() const;

    /**
     * Write as much of @p data as fits; returns bytes accepted. Charges
     * the copy into the shared ring and notifies the peer only when the
     * ring transitioned from empty (suppression).
     */
    std::size_t write(const Cstruct &data);

    /** Read up to @p max bytes into a fresh view (copy out of ring). */
    Cstruct read(std::size_t max);

    /** Invoked when space opens up after the send ring was full. */
    void onSpaceAvailable(std::function<void()> fn);

    Domain &domain() { return dom_; }

  private:
    friend class Vchan;
    VchanEndpoint(Vchan &owner, Domain &dom, bool is_a)
        : owner_(owner), dom_(dom), is_a_(is_a)
    {
    }

    Vchan &owner_;
    Domain &dom_;
    bool is_a_;
    std::function<void()> space_cb_;
};

/**
 * A connected vchan between two domains. Construct via Vchan::connect.
 */
class Vchan
{
  public:
    /** Ring capacity per direction: multiple contiguous pages (§3.5.1). */
    static constexpr std::size_t ringBytes = 16 * 4096;

    static std::unique_ptr<Vchan> connect(Domain &a, Domain &b);

    VchanEndpoint &endA() { return *end_a_; }
    VchanEndpoint &endB() { return *end_b_; }

    /** Total event-channel notifications sent (suppression metric). */
    u64 notifies() const { return notifies_; }

  private:
    friend class VchanEndpoint;

    struct Ring
    {
        std::vector<u8> buf = std::vector<u8>(ringBytes);
        u64 prod = 0;
        u64 cons = 0;

        std::size_t used() const { return std::size_t(prod - cons); }
        std::size_t space() const { return ringBytes - used(); }
    };

    Vchan(Domain &a, Domain &b);

    Ring &txRing(bool from_a) { return from_a ? a_to_b_ : b_to_a_; }

    void notifyPeer(bool from_a, bool data_side);

    Domain &a_;
    Domain &b_;
    Ring a_to_b_;
    Ring b_to_a_;
    std::unique_ptr<VchanEndpoint> end_a_;
    std::unique_ptr<VchanEndpoint> end_b_;
    Port port_a_ = 0;
    Port port_b_ = 0;
    u64 notifies_ = 0;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_VCHAN_H
