#pragma once

/// @file pages.hpp
/// Page-granular advice on this process's own memory, for the fork-per-shard
/// market (mec/shard_aggregator.hpp): keep the rows a child will never read
/// out of that child (`ForkExclusion`), and let a child hand its inherited
/// copy of rows back to the kernel once it has copied them
/// (`release_pages`).
///
/// Both act only on the whole pages inside a byte range — its start rounded
/// up and its end rounded down to the page size — so a page the range
/// shares with a neighbouring allocation, a neighbouring row range or
/// malloc's own metadata is never touched. Neither changes what the caller
/// can read: correctness never depends on the kernel taking the advice.

#include <cstddef>
#include <vector>

namespace fmore::util {

/// `sysconf(_SC_PAGESIZE)`, read once.
[[nodiscard]] std::size_t page_size();

/// Bytes [begin, end) of this process's memory.
struct ByteRange {
    const void* begin = nullptr;
    const void* end = nullptr;
};

/// The whole pages inside `range`: begin rounded up and end rounded down to
/// `sysconf(_SC_PAGESIZE)`. Empty (begin == end) when no whole page fits,
/// e.g. for a range shorter than one page.
[[nodiscard]] ByteRange whole_pages(ByteRange range);

/// While alive, keeps the whole pages inside each range out of every child
/// this process forks (`madvise(MADV_DONTFORK)`): such a child does not map
/// them at all, so its page table and its resident set never count them.
/// The destructor re-admits every range the constructor advised
/// (`MADV_DOFORK`). A range the kernel refuses to hide stays inherited.
///
/// The exclusion applies to a fork from ANY thread while the guard lives.
/// A child forked meanwhile must never read the hidden pages: they are not
/// mapped there, and a read faults.
class ForkExclusion {
public:
    explicit ForkExclusion(const std::vector<ByteRange>& ranges);
    ~ForkExclusion();
    ForkExclusion(const ForkExclusion&) = delete;
    ForkExclusion& operator=(const ForkExclusion&) = delete;

private:
    std::vector<ByteRange> advised_;  ///< whole-page ranges, non-empty
};

/// Returns the whole pages inside `range` to the kernel
/// (`madvise(MADV_DONTNEED)`). A private anonymous page reads back as zeros
/// afterwards, so this is for memory the caller never reads again: a forked
/// child's inherited copy of rows it has already copied. A page still
/// shared copy-on-write with the parent stays the parent's.
void release_pages(ByteRange range);

} // namespace fmore::util
