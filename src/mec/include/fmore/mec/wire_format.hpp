#pragma once

/// @file wire_format.hpp
/// The shard market's pipe protocol: CRC32-checksummed, length-prefixed,
/// typed frames. Every message between the aggregator and a worker is one
/// frame — a fixed 24-byte header followed by `payload_size` bytes:
///
///   magic(u32) type(u32) payload_size(u64) payload_crc(u32) header_crc(u32)
///
/// `header_crc` covers the first 20 header bytes, so a flipped bit in the
/// length field is caught BEFORE it desynchronizes the stream;
/// `payload_crc` covers the payload, so a corrupt or self-described-short
/// body is caught before a single byte of it is consumed. All reads and
/// writes loop over EINTR and short transfers; a frame is written with one
/// `writev`.
///
/// Verification outcomes map to recovery actions (shard_aggregator.cpp):
///  - `bad_payload`: the stream is still framed (the header was good, the
///    advertised bytes were drained) — recoverable by one re-request;
///  - `bad_header` / `eof` / `timeout`: the frame boundary is lost or the
///    peer is gone — the worker is evicted and respawned by the supervisor.
///
/// The downlink payload layouts and their checked decodes close the file.

#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "fmore/mec/stream_round.hpp"
#include "fmore/util/snapshot.hpp"

namespace fmore::mec::wire {

inline constexpr std::uint32_t kMagic = 0x464d4f52u;  // "FMOR"

/// Frame types. Downlink: request, stream_request, sync, resend. Uplink:
/// head, nack. Both request types are answered with one `head` frame.
/// `resend` (empty payload) asks a worker to repeat its last head after a
/// payload-checksum failure; `nack` asks the aggregator to repeat its last
/// request.
enum class FrameType : std::uint32_t {
    request = 1,  ///< round request + newly banned ids
    sync = 2,     ///< respawn re-sync: full salt history + full ban list
    head = 3,     ///< serialized ShardHead
    resend = 4,   ///< "your last head frame was corrupt, send it again"
    nack = 5,     ///< "your frame was corrupt, send the request again"
    /// Streaming round request: the batch request fields plus the arrival
    /// salt/horizon and the coordinator-resolved close cut.
    stream_request = 6,
};

struct FrameHeader {
    std::uint32_t magic = kMagic;
    std::uint32_t type = 0;
    std::uint64_t payload_size = 0;
    std::uint32_t payload_crc = 0;
    std::uint32_t header_crc = 0;
};
static_assert(sizeof(FrameHeader) == 24, "wire layout is part of the protocol");

/// A frame larger than this is treated as a corrupt header (a real head is
/// bounded by ranking_cutoff rows; a gigabyte length is a flipped bit).
inline constexpr std::uint64_t kMaxPayload = 1ull << 30;

enum class ReadStatus {
    ok,
    eof,          ///< peer closed the pipe (or read error)
    timeout,      ///< deadline expired mid-frame
    bad_header,   ///< magic/header-CRC/size check failed — stream desynced
    bad_payload,  ///< payload CRC mismatch — stream still framed
};

/// CRC32 (IEEE 802.3 polynomial, reflected) — the checksum snapshot files
/// use too, computed by one implementation.
inline std::uint32_t crc32(const void* data, std::size_t size) {
    return util::snapshot_crc32(static_cast<const std::uint8_t*>(data), size);
}

/// Write exactly `size` bytes, looping over EINTR and short writes. With
/// SIGPIPE ignored a dead peer surfaces as EPIPE -> false, not a signal.
inline bool write_all(int fd, const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (size > 0) {
        const ssize_t n = ::write(fd, p, size);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/// Blocking read of exactly `size` bytes; false on EOF or error.
inline bool read_all(int fd, void* data, std::size_t size) {
    auto* p = static_cast<std::uint8_t*>(data);
    while (size > 0) {
        const ssize_t n = ::read(fd, p, size);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            return false;
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/// Deadline-bounded read of exactly `size` bytes (aggregator side).
inline ReadStatus read_all_deadline(int fd, void* data, std::size_t size,
                                    std::chrono::steady_clock::time_point deadline) {
    auto* p = static_cast<std::uint8_t*>(data);
    while (size > 0) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) return ReadStatus::timeout;
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int rv = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
        if (rv < 0) {
            if (errno == EINTR) continue;
            return ReadStatus::eof;
        }
        if (rv == 0) return ReadStatus::timeout;
        const ssize_t n = ::read(fd, p, size);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            return ReadStatus::eof;
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return ReadStatus::ok;
}

/// Write one frame with an explicitly claimed size/CRC — the fault-injection
/// seam (`truncated_write` claims fewer bytes than it hashed, `bit_flip`
/// sends flipped bytes under the clean CRC). `claimed_size` bytes of `data`
/// are sent; honest writers pass claimed_size == hashed size and the CRC of
/// exactly those bytes. Header and payload go out in one `writev`, resumed
/// after short writes and EINTR, so a frame of at most PIPE_BUF bytes lands
/// in the pipe whole and a polling reader wakes once for it.
inline bool write_frame_raw(int fd, FrameType type, const void* data,
                            std::uint64_t claimed_size, std::uint32_t payload_crc) {
    FrameHeader h;
    h.type = static_cast<std::uint32_t>(type);
    h.payload_size = claimed_size;
    h.payload_crc = payload_crc;
    h.header_crc = crc32(&h, sizeof(FrameHeader) - sizeof(std::uint32_t));
    iovec parts[2] = {{&h, sizeof(h)},
                      {const_cast<void*>(data), static_cast<std::size_t>(claimed_size)}};
    iovec* next = parts;
    int left = claimed_size > 0 ? 2 : 1;
    while (left > 0) {
        const ssize_t n = ::writev(fd, next, left);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        auto written = static_cast<std::size_t>(n);
        for (; left > 0 && written >= next->iov_len; ++next, --left) written -= next->iov_len;
        if (left > 0) {
            next->iov_base = static_cast<std::uint8_t*>(next->iov_base) + written;
            next->iov_len -= written;
        }
    }
    return true;
}

/// Write one well-formed frame.
inline bool write_frame(int fd, FrameType type, const void* data, std::size_t size) {
    return write_frame_raw(fd, type, data, size, size > 0 ? crc32(data, size) : 0);
}

inline bool header_valid(const FrameHeader& h) {
    return h.magic == kMagic && h.payload_size <= kMaxPayload
           && h.header_crc == crc32(&h, sizeof(FrameHeader) - sizeof(std::uint32_t));
}

/// Blocking frame read (worker side). On `bad_payload` the advertised bytes
/// have been drained — the stream is still framed and the caller may nack.
inline ReadStatus read_frame(int fd, FrameHeader& header,
                             std::vector<std::uint8_t>& payload) {
    if (!read_all(fd, &header, sizeof(header))) return ReadStatus::eof;
    if (!header_valid(header)) return ReadStatus::bad_header;
    payload.resize(header.payload_size);
    if (header.payload_size > 0 && !read_all(fd, payload.data(), payload.size()))
        return ReadStatus::eof;
    if (header.payload_size > 0 && crc32(payload.data(), payload.size()) != header.payload_crc)
        return ReadStatus::bad_payload;
    if (header.payload_size == 0 && header.payload_crc != 0)
        return ReadStatus::bad_payload;
    return ReadStatus::ok;
}

/// Deadline-bounded frame read (aggregator side).
inline ReadStatus read_frame_deadline(int fd, FrameHeader& header,
                                      std::vector<std::uint8_t>& payload,
                                      std::chrono::steady_clock::time_point deadline) {
    ReadStatus rs = read_all_deadline(fd, &header, sizeof(header), deadline);
    if (rs != ReadStatus::ok) return rs;
    if (!header_valid(header)) return ReadStatus::bad_header;
    payload.resize(header.payload_size);
    if (header.payload_size > 0) {
        rs = read_all_deadline(fd, payload.data(), payload.size(), deadline);
        if (rs != ReadStatus::ok) return rs;
        if (crc32(payload.data(), payload.size()) != header.payload_crc)
            return ReadStatus::bad_payload;
    } else if (header.payload_crc != 0) {
        return ReadStatus::bad_payload;
    }
    return ReadStatus::ok;
}

// ---------------------------------------------------------------------------
// Downlink payload layouts. A worker trusts none of their counts: each
// decode checks every count against the bytes left (by division, so no
// count can wrap the bound) before it exposes a single value, and the worker
// exits on a payload that does not decode.
// ---------------------------------------------------------------------------

/// Fixed-size head of a `request` / `stream_request` payload; `num_banned`
/// global node ids (u64 each) follow the fixed part inside the same frame.
struct RoundRequest {
    std::uint64_t round = 0;
    std::uint64_t k = 0;
    std::uint64_t evolve_salt = 0;
    std::uint64_t tie_salt = 0;
    std::uint64_t limit = 0;
    std::uint64_t num_banned = 0;
};

/// Streaming-round extension, between the RoundRequest and the banned ids
/// of a `stream_request` frame: the arrival clock and the
/// coordinator-resolved close cut (stream_round.hpp).
struct StreamExtra {
    std::uint64_t arrival_salt = 0;
    double horizon_s = 0.0;
    double close_time_s = 0.0;
    std::uint64_t boundary_node = kStreamBoundaryAny;
};

/// `count` u64 values packed back to back inside a decoded payload, not
/// necessarily aligned: read each with `at`. A view into the payload, so
/// valid only while the payload lives unchanged.
struct PackedU64s {
    const std::uint8_t* data = nullptr;
    std::size_t count = 0;

    [[nodiscard]] std::uint64_t at(std::size_t i) const {
        std::uint64_t v = 0;
        std::memcpy(&v, data + i * sizeof(v), sizeof(v));
        return v;
    }
};

/// A decoded `request` or `stream_request` payload.
struct RequestPayload {
    RoundRequest request;
    StreamExtra extra;   ///< stream_request only
    PackedU64s banned;   ///< the newly banned global node ids
};

/// Decodes a `request` (`streaming == false`) or `stream_request` payload:
/// the fixed part, then `num_banned` ids. False when the payload is shorter
/// than the fixed part or holds fewer ids than it declares.
[[nodiscard]] inline bool decode_request(const std::vector<std::uint8_t>& payload,
                                         bool streaming, RequestPayload& out) {
    std::size_t at = sizeof(RoundRequest);
    if (payload.size() < at) return false;
    std::memcpy(&out.request, payload.data(), sizeof(RoundRequest));
    if (streaming) {
        if (payload.size() - at < sizeof(StreamExtra)) return false;
        std::memcpy(&out.extra, payload.data() + at, sizeof(StreamExtra));
        at += sizeof(StreamExtra);
    }
    if ((payload.size() - at) / sizeof(std::uint64_t) < out.request.num_banned) return false;
    out.banned = {payload.data() + at, static_cast<std::size_t>(out.request.num_banned)};
    return true;
}

/// A decoded `sync` payload: the drift-salt history, then the ban list.
struct SyncPayload {
    PackedU64s salts;
    PackedU64s bans;
};

/// Decodes a `sync` payload: u64 salt count, the salts, u64 ban count, the
/// bans. False unless the payload is exactly 8 + 8 * salts + 8 + 8 * bans
/// bytes.
[[nodiscard]] inline bool decode_sync(const std::vector<std::uint8_t>& payload,
                                      SyncPayload& out) {
    constexpr std::size_t kWord = sizeof(std::uint64_t);
    const std::uint8_t* p = payload.data();
    std::size_t left = payload.size();
    // One counted list: its u64 count, then that many words.
    const auto take = [&](PackedU64s& list) {
        if (left < kWord) return false;
        std::uint64_t count = 0;
        std::memcpy(&count, p, kWord);
        p += kWord;
        left -= kWord;
        if (left / kWord < count) return false;
        list = {p, static_cast<std::size_t>(count)};
        p += list.count * kWord;
        left -= list.count * kWord;
        return true;
    };
    return take(out.salts) && take(out.bans) && left == 0;
}

} // namespace fmore::mec::wire
