#pragma once

/// @file snapshot.hpp
/// Versioned, CRC-checksummed binary container for run checkpoints.
///
/// The durable-run subsystem (docs/ARCHITECTURE.md, "Durability model")
/// persists everything a run needs to continue — population columns, salt
/// history, bans, model weights, the metrics tape — into a single file per
/// checkpoint. The format is deliberately dumb: a fixed header followed by
/// tagged sections, every byte of which is covered by a CRC32 (the one the
/// shard wire protocol in `mec/wire_format.hpp` also uses). A torn write, a
/// truncated prefix, or a single flipped bit anywhere in the file fails a
/// checksum or a bounds check and raises `SnapshotError` with the offending
/// path and section — a checkpoint is either consumed whole or rejected
/// whole, never half-loaded.
///
/// Writes are atomic: the file header, each section header and each
/// payload are written from their own buffers (a borrowed payload is never
/// copied) to `<path>.tmp`, which is fsync'd and renamed over `<path>`, and
/// the directory is fsync'd. A crash at any point leaves either the
/// previous file or a `.tmp` that readers never look at.
///
/// File layout (all integers little-endian):
///
///   u32 magic 'FMSN' | u32 version | u32 section_count | u32 header_crc
///   per section:
///     u32 tag | u64 payload_size | u32 payload_crc | u32 section_header_crc
///     payload bytes
///
/// `header_crc` covers the 12 bytes before it; `section_header_crc` covers
/// the 16 bytes before it; `payload_crc` covers the payload. Trailing bytes
/// after the last section are an error (they would mean a size/count
/// mismatch slipped through).

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace fmore::util {

/// Every snapshot failure — I/O, truncation, corruption, type mismatch —
/// surfaces as this, with a message naming the file and section involved.
class SnapshotError : public std::runtime_error {
public:
    explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// CRC-32 (IEEE 802.3, reflected) over a byte range — the one checksum of
/// both snapshot files and shard wire frames. Table-driven, eight bytes per
/// step (slicing-by-8); every output equals the byte-at-a-time definition.
[[nodiscard]] std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size);

/// Append-only little-endian encoder for section payloads. Strings and
/// vectors are length-prefixed; floats are stored as their bit pattern —
/// not a decimal rendering — so they round-trip exactly. Vectors are
/// appended with one memcpy each.
class ByteWriter {
public:
    void put_u32(std::uint32_t v);
    void put_u64(std::uint64_t v);
    void put_f32(float v);
    void put_f64(double v);
    void put_str(const std::string& s);
    void put_f32_vec(const std::vector<float>& v);
    void put_f64_vec(const std::vector<double>& v);
    void put_u64_vec(const std::vector<std::uint64_t>& v);
    /// Overwrite the 8 bytes at `offset`, which an earlier put wrote — for a
    /// count that is only known once the items after it are encoded.
    void patch_u64(std::size_t offset, std::uint64_t v);

    [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

private:
    std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked decoder for section payloads. Every read that would run
/// past the end throws `SnapshotError` naming `context` — truncation is a
/// diagnosis, not a crash.
class ByteReader {
public:
    ByteReader(const std::uint8_t* data, std::size_t size, std::string context)
        : data_(data), size_(size), context_(std::move(context)) {}

    [[nodiscard]] std::uint32_t get_u32();
    [[nodiscard]] std::uint64_t get_u64();
    [[nodiscard]] float get_f32();
    [[nodiscard]] double get_f64();
    [[nodiscard]] std::string get_str();
    [[nodiscard]] std::vector<float> get_f32_vec();
    [[nodiscard]] std::vector<double> get_f64_vec();
    [[nodiscard]] std::vector<std::uint64_t> get_u64_vec();

    [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
    /// Throws unless every payload byte was consumed — a half-read section
    /// means the writer and reader disagree on the schema.
    void expect_end() const;

private:
    void need(std::size_t n, const char* what) const;

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::string context_;
};

/// Collects a snapshot file's tagged sections and writes it atomically.
class SnapshotWriter {
public:
    /// Add one section. Tags must be unique within a file.
    void add_section(std::uint32_t tag, std::vector<std::uint8_t> payload);
    /// Add a section whose payload stays with the caller: it must outlive
    /// every `serialize`/`write_file` of this writer and not change during
    /// one.
    void add_borrowed_section(std::uint32_t tag, const std::vector<std::uint8_t>& payload);

    /// The whole file as one buffer (header + sections) — the reference
    /// bytes `write_file` leaves on disk.
    [[nodiscard]] std::vector<std::uint8_t> serialize() const;

    /// Atomic write: `<path>.tmp` + fsync + rename + directory fsync.
    /// `mid_write`, when set, runs once, after half the file's bytes hit the
    /// temp file and before the rename — the crash-recovery harness uses it
    /// to SIGKILL the process mid-checkpoint and prove the torn `.tmp`
    /// never shadows the previous good checkpoint.
    void write_file(const std::string& path,
                    const std::function<void()>& mid_write = nullptr) const;

    static constexpr std::uint32_t kMagic = 0x4E534D46u; // 'FMSN' little-endian
    static constexpr std::uint32_t kVersion = 1;

private:
    struct Section {
        std::uint32_t tag;
        std::vector<std::uint8_t> owned;
        const std::vector<std::uint8_t>* borrowed = nullptr;
        [[nodiscard]] const std::vector<std::uint8_t>& payload() const {
            return borrowed ? *borrowed : owned;
        }
    };
    /// One contiguous byte range of the file.
    struct Part {
        const std::uint8_t* data;
        std::size_t size;
    };
    void check_new_tag(std::uint32_t tag) const;
    /// The file as byte ranges in order: the headers are built into
    /// `headers`, the payloads are referenced where they live.
    [[nodiscard]] std::vector<Part> layout(std::vector<std::uint8_t>& headers) const;

    std::vector<Section> sections_;
};

/// Parses and fully validates a snapshot file: magic, version, all three
/// CRC tiers, section sizes against the file size, duplicate tags,
/// trailing bytes. Construction succeeds only for an intact file.
class SnapshotReader {
public:
    [[nodiscard]] static SnapshotReader from_file(const std::string& path);
    [[nodiscard]] static SnapshotReader from_bytes(std::vector<std::uint8_t> bytes,
                                                   const std::string& context);

    [[nodiscard]] bool has_section(std::uint32_t tag) const {
        return sections_.count(tag) != 0;
    }
    /// @throws SnapshotError when the tag is absent
    [[nodiscard]] const std::vector<std::uint8_t>& section(std::uint32_t tag) const;
    /// Bounds-checked reader over one section's payload.
    [[nodiscard]] ByteReader open_section(std::uint32_t tag) const;
    [[nodiscard]] std::size_t section_count() const { return sections_.size(); }
    [[nodiscard]] const std::string& context() const { return context_; }

private:
    SnapshotReader() = default;
    void parse(const std::vector<std::uint8_t>& bytes);

    std::map<std::uint32_t, std::vector<std::uint8_t>> sections_;
    std::string context_;
};

} // namespace fmore::util
