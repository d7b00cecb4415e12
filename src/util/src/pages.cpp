#include "fmore/util/pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace fmore::util {

namespace {

void advise(ByteRange pages, int advice) {
    auto* begin = const_cast<void*>(pages.begin);
    const std::size_t length = static_cast<std::size_t>(static_cast<const char*>(pages.end)
                                                        - static_cast<const char*>(pages.begin));
    (void)::madvise(begin, length, advice);
}

} // namespace

std::size_t page_size() {
    static const std::size_t size = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return size;
}

ByteRange whole_pages(ByteRange range) {
    const std::uintptr_t page = page_size();
    const auto begin = reinterpret_cast<std::uintptr_t>(range.begin);
    const auto end = reinterpret_cast<std::uintptr_t>(range.end);
    const std::uintptr_t first = (begin + page - 1) / page * page;
    const std::uintptr_t last = end / page * page;
    if (end <= begin || last <= first) return {range.begin, range.begin};
    return {reinterpret_cast<const void*>(first), reinterpret_cast<const void*>(last)};
}

ForkExclusion::ForkExclusion(const std::vector<ByteRange>& ranges) {
    // Reserved up front: nothing may throw once a range is advised, or the
    // destructor that re-admits it would never run.
    advised_.reserve(ranges.size());
    for (const ByteRange range : ranges) {
        const ByteRange pages = whole_pages(range);
        if (pages.begin == pages.end) continue;
        // Kept even when the kernel refuses: a refusal part-way through a
        // range may already have hidden its first pages.
        advise(pages, MADV_DONTFORK);
        advised_.push_back(pages);
    }
}

ForkExclusion::~ForkExclusion() {
    for (const ByteRange pages : advised_) advise(pages, MADV_DOFORK);
}

void release_pages(ByteRange range) {
    const ByteRange pages = whole_pages(range);
    if (pages.begin != pages.end) advise(pages, MADV_DONTNEED);
}

} // namespace fmore::util
