#include "bench_support.hpp"

#include <sys/vfs.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t Tracer::open(std::string name, std::int64_t round) {
    if (!enabled_) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(SpanRecord{std::move(name), now_ns(), 0, parent, round});
    stack_.push_back(id);
    return id;
}

void Tracer::close(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::int64_t Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                         std::int64_t parent, std::int64_t round) {
    if (!enabled_) return -1;
    spans_.push_back(SpanRecord{std::move(name), start_ns, end_ns, parent, round});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::set_parent(std::int64_t child, std::int64_t parent) {
    if (child < 0) return;
    spans_.at(static_cast<std::size_t>(child)).parent = parent;
}

void Tracer::write_chrome_json(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    std::int64_t origin = 0;
    for (const SpanRecord& span : spans_) {
        if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
    }
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& span = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %lld, \"round\": %lld}}",
                      static_cast<double>(span.start_ns - origin) * 1e-3,
                      static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                      static_cast<long long>(span.parent),
                      static_cast<long long>(span.round));
        out << "  {\"name\": \"" << span.name << "\", \"cat\": \"perfbench\", " << buf
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out.flush()) throw std::runtime_error("short write to trace file " + path);
}

void Digest::add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (value >> (8 * byte)) & 0xffU;
        hash_ *= 0x100000001b3ULL;
    }
}

void Digest::add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

std::string Digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
}

Digest digest_winners(const std::vector<fmore::auction::Winner>& winners) {
    Digest digest;
    digest.add(static_cast<std::uint64_t>(winners.size()));
    for (const fmore::auction::Winner& winner : winners) {
        digest.add(static_cast<std::uint64_t>(winner.node));
        digest.add(winner.score);
        digest.add(winner.payment);
    }
    return digest;
}

Digest digest_selection(const fmore::fl::SelectionRecord& record) {
    Digest digest;
    digest.add(static_cast<std::uint64_t>(record.selected.size()));
    for (const fmore::fl::SelectedClient& client : record.selected) {
        digest.add(static_cast<std::uint64_t>(client.client));
        digest.add(client.score);
        digest.add(client.payment);
        digest.add(client.train_samples ? static_cast<std::uint64_t>(*client.train_samples)
                                        : ~std::uint64_t{0});
    }
    return digest;
}

std::vector<double> split_rounds_ms(const std::vector<std::int64_t>& entries_ns,
                                    std::int64_t end_ns) {
    if (entries_ns.empty())
        throw std::invalid_argument("split_rounds_ms: no select() entries");
    std::vector<double> rounds;
    rounds.reserve(entries_ns.size());
    for (std::size_t r = 0; r < entries_ns.size(); ++r) {
        const std::int64_t next = r + 1 < entries_ns.size() ? entries_ns[r + 1] : end_ns;
        if (next <= entries_ns[r])
            throw std::invalid_argument("split_rounds_ms: timestamps not increasing at round "
                                        + std::to_string(r + 1));
        rounds.push_back(ms_between(entries_ns[r], next));
    }
    return rounds;
}

namespace {

std::string proc_path(int pid, const char* leaf) {
    return pid == 0 ? std::string("/proc/self/") + leaf
                    : "/proc/" + std::to_string(pid) + "/" + leaf;
}

} // namespace

long peak_rss_kib(int pid) {
    std::ifstream in(proc_path(pid, "status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
    }
    throw std::runtime_error("no VmHWM in " + proc_path(pid, "status"));
}

std::int64_t cpu_time_ns(int pid) {
    std::ifstream in(proc_path(pid, "schedstat"));
    long long ns = 0;
    if (!(in >> ns)) throw std::runtime_error("unreadable " + proc_path(pid, "schedstat"));
    return ns;
}

std::string filesystem_type(const std::string& path) {
    struct statfs info {};
    if (::statfs(path.c_str(), &info) != 0) return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
        case 0xEF53UL: return "ext2/3/4";
        case 0x01021994UL: return "tmpfs";
        case 0x794C7630UL: return "overlay";
        case 0x58465342UL: return "xfs";
        case 0x9123683EUL: return "btrfs";
        default: break;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(info.f_type));
    return buf;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

} // namespace perfbench
