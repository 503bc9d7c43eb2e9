/**
 * @file
 * The block backend: an in-memory virtual disk with a PCIe-SSD service
 * model, driven through the blkif ring protocol (§3.5.2, Fig 9).
 */

#ifndef MIRAGE_HYPERVISOR_BLKBACK_H
#define MIRAGE_HYPERVISOR_BLKBACK_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/cstruct.h"
#include "hypervisor/domain.h"
#include "hypervisor/event_channel.h"
#include "hypervisor/grant_map_cache.h"
#include "hypervisor/ring.h"
#include "sim/cpu.h"

namespace mirage::xen {

/** Wire layout of blkif ring slots, shared with drivers/blkif. */
struct BlkifWire
{
    // request
    static constexpr std::size_t reqId = 0;      // le64
    static constexpr std::size_t reqOp = 8;      // u8: 0 read, 1 write
    static constexpr std::size_t reqSectors = 9; // u8: 1..8 (one page)
    static constexpr std::size_t reqFlags = 10;  // u8
    static constexpr std::size_t reqOffset = 12; // le32 offset in grant
    static constexpr std::size_t reqSector = 16; // le64 start sector
    static constexpr std::size_t reqGrant = 24;  // le32 data page grant
    /** Low 32 bits of the request-flow id (0 = untracked). */
    static constexpr std::size_t reqFlow = 28; // le32
    // response
    static constexpr std::size_t rspId = 0;     // le64
    static constexpr std::size_t rspStatus = 8; // u8: 0 ok

    /**
     * The data grant is persistent: the backend caches the mapping
     * instead of unmapping after this request, and reqOffset locates
     * the data inside the (whole-buffer) grant.
     */
    static constexpr u8 flagPersistent = 0x1;

    static constexpr u8 opRead = 0;
    static constexpr u8 opWrite = 1;
    static constexpr u8 statusOk = 0;
    static constexpr u8 statusError = 1;

    static constexpr std::size_t sectorBytes = 512;
    static constexpr u8 maxSectors = 8; //!< one 4 kB page per request
};

/**
 * Sparse in-memory disk with a serialised service-time model:
 * per-request fixed latency plus streaming bandwidth, so small random
 * reads are latency-bound and large reads hit the device's bandwidth
 * ceiling — the two regimes Fig 9 sweeps across.
 */
class VirtualDisk
{
  public:
    VirtualDisk(sim::Engine &engine, std::string name, u64 size_sectors);

    u64 sizeSectors() const { return size_sectors_; }

    /** Direct, unmodelled access (test setup / mkfs-style tooling). */
    Status readSync(u64 sector, u32 count, Cstruct dst);
    Status writeSync(u64 sector, u32 count, const Cstruct &src);

    /** Modelled access: completes on the disk's service timeline. */
    void readAsync(u64 sector, u32 count, Cstruct dst,
                   std::function<void(Status)> done);
    void writeAsync(u64 sector, u32 count, Cstruct src,
                    std::function<void(Status)> done);

    u64 requestsServed() const { return requests_; }

  private:
    static constexpr std::size_t chunkSectors = 8; //!< 4 kB chunks

    Duration serviceTime(u32 count) const;
    std::vector<u8> &chunkFor(u64 sector);

    sim::Engine &engine_;
    sim::Cpu server_;
    u64 size_sectors_;
    std::unordered_map<u64, std::vector<u8>> chunks_;
    u64 requests_ = 0;
    trace::Counter *c_requests_ = nullptr;
};

class Blkback
{
  public:
    Blkback(Domain &backend_dom, VirtualDisk &disk);

    /**
     * Bind a frontend's ring (already granted) and event port. Also
     * registers a shutdown hook on @p frontend so the ring grant and
     * any in-flight data grants are unmapped when it tears down.
     * Response pushes wake @p poller, the frontend's response poller,
     * which must run on this backend's engine (null for a frontend
     * that does not poll).
     */
    void connect(Domain &frontend, GrantRef ring_grant, Port backend_port,
                 sim::Poller *poller = nullptr);

    /**
     * Unmap everything held on the frontend and drop the ring.
     * Idempotent; in-flight disk completions after this are discarded.
     */
    void disconnect();

    VirtualDisk &disk() { return disk_; }
    Domain &backendDomain() { return dom_; }
    u64 requestsHandled() const { return handled_; }

    /** Persistent-grant mapping cache (test visibility). */
    const GrantMapCache &mapCache() const { return pmap_; }

  private:
    void onEvent();
    void complete(u64 id, u8 status);
    u32 flowTrack();

    Domain &dom_;
    VirtualDisk &disk_;
    Domain *frontend_ = nullptr;
    Port port_ = 0;
    GrantRef ring_grant_ = 0;
    std::unique_ptr<BackRing> ring_;
    std::vector<GrantRef> mapped_grefs_; //!< one-shot data grants in flight
    /** gref → page cache for persistent data grants. */
    GrantMapCache pmap_;
    /** Deferred completion doorbell (interrupt mitigation). */
    std::unique_ptr<LazyDoorbell> bell_;
    /** Disk requests submitted but not yet finished. While nonzero the
     *  ring's req_event stays parked: each completion re-drains the
     *  ring, so frontend pushes need no doorbell; the last completion
     *  re-arms it. */
    u64 inflight_ = 0;
    u64 handled_ = 0;
    u32 track_ = 0; //!< lazily interned "<dom>/blkback" track
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_BLKBACK_H
