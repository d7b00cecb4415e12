// The shard worker's two downlink decodes (mec/wire_format.hpp) against
// payloads the coordinator would never write: every truncation of a valid
// payload, counts whose byte size wraps 64 bits (2^61 + n words wraps to
// the n words present; 2^64 - 1 words), and counts one larger than the
// payload holds. A payload either decodes to
// exactly what was encoded or is rejected; under the sanitizer build no
// input may read past the payload's end.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "fmore/mec/wire_format.hpp"

namespace fmore::mec::wire {
namespace {

constexpr std::uint64_t kWrapAt = std::uint64_t{1} << 61;  // 2^61 words = 2^64 bytes
constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint64_t>::max();

void put(std::vector<std::uint8_t>& out, const void* data, std::size_t size) {
    const std::size_t at = out.size();
    out.resize(at + size);
    std::memcpy(out.data() + at, data, size);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) { put(out, &v, sizeof v); }

/// The request payload the coordinator writes: the fixed part, the stream
/// extension when streaming, then the banned ids.
std::vector<std::uint8_t> request_payload(bool streaming,
                                          const std::vector<std::uint64_t>& banned,
                                          std::uint64_t declared) {
    RoundRequest req;
    req.round = 7;
    req.k = 5;
    req.evolve_salt = 0x1111;
    req.tie_salt = 0x2222;
    req.limit = 6;
    req.num_banned = declared;
    std::vector<std::uint8_t> out;
    put(out, &req, sizeof req);
    if (streaming) {
        StreamExtra extra;
        extra.arrival_salt = 0x3333;
        extra.horizon_s = 1.5;
        extra.close_time_s = 0.75;
        extra.boundary_node = 42;
        put(out, &extra, sizeof extra);
    }
    for (const std::uint64_t id : banned) put_u64(out, id);
    return out;
}

/// A sync payload: counted salts, then counted bans.
std::vector<std::uint8_t> sync_payload(const std::vector<std::uint64_t>& salts,
                                       std::uint64_t declared_salts,
                                       const std::vector<std::uint64_t>& bans,
                                       std::uint64_t declared_bans) {
    std::vector<std::uint8_t> out;
    put_u64(out, declared_salts);
    for (const std::uint64_t salt : salts) put_u64(out, salt);
    put_u64(out, declared_bans);
    for (const std::uint64_t ban : bans) put_u64(out, ban);
    return out;
}

std::vector<std::uint64_t> values(const PackedU64s& list) {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < list.count; ++i) out.push_back(list.at(i));
    return out;
}

TEST(DownlinkDecode, RequestDecodesExactlyAndRejectsEveryTruncation) {
    const std::vector<std::uint64_t> banned = {3, 99, 12345};
    for (const bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "stream_request" : "request");
        const std::vector<std::uint8_t> payload =
            request_payload(streaming, banned, banned.size());
        RequestPayload decoded;
        ASSERT_TRUE(decode_request(payload, streaming, decoded));
        EXPECT_EQ(decoded.request.round, 7u);
        EXPECT_EQ(decoded.request.k, 5u);
        EXPECT_EQ(decoded.request.evolve_salt, 0x1111u);
        EXPECT_EQ(decoded.request.tie_salt, 0x2222u);
        EXPECT_EQ(decoded.request.limit, 6u);
        EXPECT_EQ(values(decoded.banned), banned);
        if (streaming) {
            EXPECT_EQ(decoded.extra.arrival_salt, 0x3333u);
            EXPECT_EQ(decoded.extra.horizon_s, 1.5);
            EXPECT_EQ(decoded.extra.close_time_s, 0.75);
            EXPECT_EQ(decoded.extra.boundary_node, 42u);
        }
        for (std::size_t len = 0; len < payload.size(); ++len) {
            const std::vector<std::uint8_t> cut(payload.begin(),
                                                payload.begin() + static_cast<std::ptrdiff_t>(len));
            RequestPayload out;
            EXPECT_FALSE(decode_request(cut, streaming, out)) << len << " bytes";
        }
    }
}

TEST(DownlinkDecode, RequestRejectsBanCountsBeyondThePayload) {
    // In bytes, 2^61 + 3 ids wrap to the 3 ids present, 2^64 - 1 ids to
    // 2^64 - 8.
    const std::vector<std::uint64_t> banned = {3, 99, 12345};
    for (const bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "stream_request" : "request");
        for (const std::uint64_t declared : {std::uint64_t{banned.size() + 1}, kWrapAt,
                                             kWrapAt + banned.size(), kMaxCount}) {
            RequestPayload out;
            EXPECT_FALSE(
                decode_request(request_payload(streaming, banned, declared), streaming, out))
                << declared << " ids declared";
        }
        // Fewer ids than the payload holds is the coordinator's own slack.
        const std::vector<std::uint8_t> slack = request_payload(streaming, banned, 1);
        RequestPayload out;
        ASSERT_TRUE(decode_request(slack, streaming, out));
        EXPECT_EQ(values(out.banned), std::vector<std::uint64_t>{3});
    }
}

TEST(DownlinkDecode, SyncDecodesExactlyAndRejectsEveryOtherLength) {
    const std::vector<std::uint64_t> salts = {0xaa, 0xbb};
    const std::vector<std::uint64_t> bans = {5, 6, 7};
    const std::vector<std::uint8_t> payload =
        sync_payload(salts, salts.size(), bans, bans.size());
    SyncPayload decoded;
    ASSERT_TRUE(decode_sync(payload, decoded));
    EXPECT_EQ(values(decoded.salts), salts);
    EXPECT_EQ(values(decoded.bans), bans);

    for (std::size_t len = 0; len < payload.size(); ++len) {
        const std::vector<std::uint8_t> cut(payload.begin(),
                                            payload.begin() + static_cast<std::ptrdiff_t>(len));
        SyncPayload out;
        EXPECT_FALSE(decode_sync(cut, out)) << len << " bytes";
    }
    for (const std::size_t extra : {std::size_t{1}, sizeof(std::uint64_t)}) {
        std::vector<std::uint8_t> longer = payload;
        longer.resize(payload.size() + extra, 0);
        SyncPayload out;
        EXPECT_FALSE(decode_sync(longer, out)) << extra << " trailing bytes";
    }

    // An empty history and no bans: two zero counts.
    const std::vector<std::uint8_t> nothing = sync_payload({}, 0, {}, 0);
    SyncPayload empty;
    ASSERT_TRUE(decode_sync(nothing, empty));
    EXPECT_EQ(empty.salts.count, 0u);
    EXPECT_EQ(empty.bans.count, 0u);
}

TEST(DownlinkDecode, SyncRejectsCountsBeyondThePayload) {
    const std::vector<std::uint64_t> salts = {0xaa, 0xbb};
    const std::vector<std::uint64_t> bans = {5, 6, 7};
    for (const std::uint64_t declared : {std::uint64_t{salts.size() + 1}, kWrapAt,
                                         kWrapAt + salts.size(), kMaxCount}) {
        SyncPayload out;
        EXPECT_FALSE(decode_sync(sync_payload(salts, declared, bans, bans.size()), out))
            << declared << " salts declared";
    }
    for (const std::uint64_t declared : {std::uint64_t{bans.size() + 1}, kWrapAt,
                                         kWrapAt + bans.size(), kMaxCount}) {
        SyncPayload out;
        EXPECT_FALSE(decode_sync(sync_payload(salts, salts.size(), bans, declared), out))
            << declared << " bans declared";
    }
}

} // namespace
} // namespace fmore::mec::wire
