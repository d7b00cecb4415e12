#include "fmore/util/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace fmore::util {

// The format is little-endian, and the bulk paths below copy native bytes.
static_assert(std::endian::native == std::endian::little,
              "snapshot encoding assumes a little-endian host");

namespace {

/// Slicing-by-8 tables: row 0 is the byte-at-a-time table of the reflected
/// IEEE polynomial; row k advances a byte's contribution by k more bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

/// Append `n` values of `T` in their native (= little-endian) bytes.
template <class T>
void append_raw(std::vector<std::uint8_t>& out, const T* data, std::size_t n) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(data);
    out.insert(out.end(), p, p + n * sizeof(T));
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) { append_raw(out, &v, 1); }
void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) { append_raw(out, &v, 1); }

std::uint32_t read_u32_at(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64_at(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/// write(2) until done, retrying on EINTR. Throws on any other failure.
void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const std::string& path) {
    std::size_t off = 0;
    while (off < size) {
        ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            int err = errno;
            throw SnapshotError("snapshot: write to '" + path +
                                "' failed: " + std::strerror(err));
        }
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size) {
    static const CrcTables t = make_crc_tables();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        std::uint64_t word;
        std::memcpy(&word, data, sizeof word);
        const auto lo = static_cast<std::uint32_t>(word) ^ crc;
        const auto hi = static_cast<std::uint32_t>(word >> 32);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu]
              ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu]
              ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size) crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------- ByteWriter

void ByteWriter::put_u32(std::uint32_t v) { append_u32(bytes_, v); }
void ByteWriter::put_u64(std::uint64_t v) { append_u64(bytes_, v); }
void ByteWriter::put_f32(float v) { append_raw(bytes_, &v, 1); }
void ByteWriter::put_f64(double v) { append_raw(bytes_, &v, 1); }

void ByteWriter::put_str(const std::string& s) {
    put_u64(s.size());
    append_raw(bytes_, s.data(), s.size());
}

void ByteWriter::put_f32_vec(const std::vector<float>& v) {
    put_u64(v.size());
    append_raw(bytes_, v.data(), v.size());
}

void ByteWriter::put_f64_vec(const std::vector<double>& v) {
    put_u64(v.size());
    append_raw(bytes_, v.data(), v.size());
}

void ByteWriter::put_u64_vec(const std::vector<std::uint64_t>& v) {
    put_u64(v.size());
    append_raw(bytes_, v.data(), v.size());
}

void ByteWriter::patch_u64(std::size_t offset, std::uint64_t v) {
    if (offset > bytes_.size() || bytes_.size() - offset < sizeof v)
        throw SnapshotError("snapshot: patch at byte " + std::to_string(offset)
                            + " runs past the " + std::to_string(bytes_.size())
                            + " bytes written");
    std::memcpy(bytes_.data() + offset, &v, sizeof v);
}

// ---------------------------------------------------------------- ByteReader

void ByteReader::need(std::size_t n, const char* what) const {
    if (size_ - pos_ < n)
        throw SnapshotError("snapshot: " + context_ + ": truncated while reading " +
                            what + " (need " + std::to_string(n) + " bytes, " +
                            std::to_string(size_ - pos_) + " left)");
}

std::uint32_t ByteReader::get_u32() {
    need(4, "u32");
    std::uint32_t v = read_u32_at(data_ + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t ByteReader::get_u64() {
    need(8, "u64");
    std::uint64_t v = read_u64_at(data_ + pos_);
    pos_ += 8;
    return v;
}

float ByteReader::get_f32() {
    std::uint32_t bits = get_u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

double ByteReader::get_f64() {
    std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string ByteReader::get_str() {
    std::uint64_t n = get_u64();
    need(n, "string bytes");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
}

std::vector<float> ByteReader::get_f32_vec() {
    std::uint64_t n = get_u64();
    need(n * 4, "f32 vector");
    std::vector<float> v(n);
    for (std::uint64_t i = 0; i < n; ++i) v[i] = get_f32();
    return v;
}

std::vector<double> ByteReader::get_f64_vec() {
    std::uint64_t n = get_u64();
    need(n * 8, "f64 vector");
    std::vector<double> v(n);
    for (std::uint64_t i = 0; i < n; ++i) v[i] = get_f64();
    return v;
}

std::vector<std::uint64_t> ByteReader::get_u64_vec() {
    std::uint64_t n = get_u64();
    need(n * 8, "u64 vector");
    std::vector<std::uint64_t> v(n);
    for (std::uint64_t i = 0; i < n; ++i) v[i] = get_u64();
    return v;
}

void ByteReader::expect_end() const {
    if (pos_ != size_)
        throw SnapshotError("snapshot: " + context_ + ": " +
                            std::to_string(size_ - pos_) +
                            " unread bytes after the last field (schema mismatch)");
}

// ------------------------------------------------------------ SnapshotWriter

void SnapshotWriter::check_new_tag(std::uint32_t tag) const {
    for (const Section& s : sections_)
        if (s.tag == tag)
            throw SnapshotError("snapshot: duplicate section tag " + std::to_string(tag));
}

void SnapshotWriter::add_section(std::uint32_t tag, std::vector<std::uint8_t> payload) {
    check_new_tag(tag);
    sections_.push_back(Section{tag, std::move(payload), nullptr});
}

void SnapshotWriter::add_borrowed_section(std::uint32_t tag,
                                          const std::vector<std::uint8_t>& payload) {
    check_new_tag(tag);
    sections_.push_back(Section{tag, {}, &payload});
}

std::vector<SnapshotWriter::Part>
SnapshotWriter::layout(std::vector<std::uint8_t>& headers) const {
    headers.clear();
    headers.reserve(16 + 20 * sections_.size());
    append_u32(headers, kMagic);
    append_u32(headers, kVersion);
    append_u32(headers, static_cast<std::uint32_t>(sections_.size()));
    append_u32(headers, snapshot_crc32(headers.data(), headers.size()));
    for (const Section& s : sections_) {
        const std::vector<std::uint8_t>& payload = s.payload();
        const std::size_t at = headers.size();
        append_u32(headers, s.tag);
        append_u64(headers, payload.size());
        append_u32(headers, snapshot_crc32(payload.data(), payload.size()));
        append_u32(headers, snapshot_crc32(headers.data() + at, 16));
    }
    // `headers` is complete, so pointers into it stay valid.
    std::vector<Part> parts;
    parts.reserve(1 + 2 * sections_.size());
    parts.push_back(Part{headers.data(), 16});
    for (std::size_t i = 0; i < sections_.size(); ++i) {
        const std::vector<std::uint8_t>& payload = sections_[i].payload();
        parts.push_back(Part{headers.data() + 16 + 20 * i, 20});
        parts.push_back(Part{payload.data(), payload.size()});
    }
    return parts;
}

std::vector<std::uint8_t> SnapshotWriter::serialize() const {
    std::vector<std::uint8_t> headers;
    std::vector<std::uint8_t> out;
    for (const Part& part : layout(headers))
        out.insert(out.end(), part.data, part.data + part.size);
    return out;
}

void SnapshotWriter::write_file(const std::string& path,
                                const std::function<void()>& mid_write) const {
    std::vector<std::uint8_t> headers;
    const std::vector<Part> parts = layout(headers);
    std::size_t total = 0;
    for (const Part& part : parts) total += part.size;
    const std::string tmp = path + ".tmp";

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        int err = errno;
        throw SnapshotError("snapshot: cannot create '" + tmp +
                            "': " + std::strerror(err));
    }
    // Write the file's bytes [from, to), each from the part that holds it.
    const auto write_range = [&](std::size_t from, std::size_t to) {
        std::size_t at = 0;
        for (const Part& part : parts) {
            const std::size_t lo = std::max(from, at);
            const std::size_t hi = std::min(to, at + part.size);
            if (lo < hi) write_all(fd, part.data + (lo - at), hi - lo, tmp);
            at += part.size;
        }
    };
    try {
        write_range(0, total / 2);
        if (mid_write) mid_write();
        write_range(total / 2, total);
        if (::fsync(fd) != 0) {
            int err = errno;
            throw SnapshotError("snapshot: fsync '" + tmp +
                                "' failed: " + std::strerror(err));
        }
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    ::close(fd);

    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        ::unlink(tmp.c_str());
        throw SnapshotError("snapshot: rename '" + tmp + "' -> '" + path +
                            "' failed: " + std::strerror(err));
    }

    // fsync the directory so the rename itself is durable.
    std::string dir = path;
    std::size_t slash = dir.find_last_of('/');
    dir = (slash == std::string::npos) ? std::string(".") : dir.substr(0, slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

// ------------------------------------------------------------ SnapshotReader

SnapshotReader SnapshotReader::from_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) {
        int err = errno;
        throw SnapshotError("snapshot: cannot open '" + path +
                            "': " + std::strerror(err));
    }
    std::vector<std::uint8_t> bytes;
    std::array<std::uint8_t, 1 << 16> buf;
    std::size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0)
        bytes.insert(bytes.end(), buf.data(), buf.data() + n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        throw SnapshotError("snapshot: read error on '" + path + "'");
    return from_bytes(std::move(bytes), path);
}

SnapshotReader SnapshotReader::from_bytes(std::vector<std::uint8_t> bytes,
                                          const std::string& context) {
    SnapshotReader r;
    r.context_ = context;
    r.parse(bytes);
    return r;
}

void SnapshotReader::parse(const std::vector<std::uint8_t>& bytes) {
    const auto fail = [this](const std::string& why) -> void {
        throw SnapshotError("snapshot: '" + context_ + "': " + why);
    };

    if (bytes.size() < 16) fail("file too short for header (" +
                                std::to_string(bytes.size()) + " bytes)");
    if (read_u32_at(bytes.data()) != SnapshotWriter::kMagic)
        fail("bad magic (not a snapshot file)");
    const std::uint32_t version = read_u32_at(bytes.data() + 4);
    if (version != SnapshotWriter::kVersion)
        fail("unsupported version " + std::to_string(version) + " (expected " +
             std::to_string(SnapshotWriter::kVersion) + ")");
    const std::uint32_t count = read_u32_at(bytes.data() + 8);
    if (read_u32_at(bytes.data() + 12) != snapshot_crc32(bytes.data(), 12))
        fail("file header checksum mismatch");

    std::size_t pos = 16;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (bytes.size() - pos < 20)
            fail("truncated at section " + std::to_string(i) + " header");
        const std::uint8_t* hdr = bytes.data() + pos;
        if (read_u32_at(hdr + 16) != snapshot_crc32(hdr, 16))
            fail("section " + std::to_string(i) + " header checksum mismatch");
        const std::uint32_t tag = read_u32_at(hdr);
        const std::uint64_t payload_size = read_u64_at(hdr + 4);
        const std::uint32_t payload_crc = read_u32_at(hdr + 12);
        pos += 20;
        if (bytes.size() - pos < payload_size)
            fail("section " + std::to_string(i) + " (tag " + std::to_string(tag) +
                 ") truncated: payload needs " + std::to_string(payload_size) +
                 " bytes, " + std::to_string(bytes.size() - pos) + " left");
        if (snapshot_crc32(bytes.data() + pos, payload_size) != payload_crc)
            fail("section " + std::to_string(i) + " (tag " + std::to_string(tag) +
                 ") payload checksum mismatch");
        if (sections_.count(tag))
            fail("duplicate section tag " + std::to_string(tag));
        sections_[tag].assign(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                              bytes.begin() + static_cast<std::ptrdiff_t>(pos + payload_size));
        pos += payload_size;
    }
    if (pos != bytes.size())
        fail(std::to_string(bytes.size() - pos) + " trailing bytes after section " +
             std::to_string(count ? count - 1 : 0));
}

const std::vector<std::uint8_t>& SnapshotReader::section(std::uint32_t tag) const {
    auto it = sections_.find(tag);
    if (it == sections_.end())
        throw SnapshotError("snapshot: '" + context_ + "': missing section tag " +
                            std::to_string(tag));
    return it->second;
}

ByteReader SnapshotReader::open_section(std::uint32_t tag) const {
    const std::vector<std::uint8_t>& p = section(tag);
    return ByteReader(p.data(), p.size(),
                      context_ + " section " + std::to_string(tag));
}

} // namespace fmore::util
