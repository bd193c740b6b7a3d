#include "gc/los.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "arch/panic.h"
#include "gc/object_layout.h"

namespace mp::gc {

void LargeObjectSpace::init(std::size_t arena_bytes) {
  MPNJ_CHECK(base_ == nullptr, "LargeObjectSpace initialized twice");
  MPNJ_CHECK((arena_bytes & (kPageBytes - 1)) == 0,
             "LOS arena must be a multiple of the page size");
  void* p = ::mmap(nullptr, arena_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  MPNJ_CHECK(p != MAP_FAILED, "mmap of %zu-byte LOS arena failed",
             arena_bytes);
  base_ = static_cast<char*>(p);
  arena_bytes_ = arena_bytes;
  arena_pages_ = arena_bytes / kPageBytes;
  free_.push_back(Extent{0, static_cast<std::uint32_t>(arena_pages_)});
}

LargeObjectSpace::~LargeObjectSpace() {
  if (base_ != nullptr) ::munmap(base_, arena_bytes_);
}

std::uint64_t* LargeObjectSpace::alloc(std::size_t obj_words) {
  const std::size_t pages = run_pages(obj_words);
  std::uint32_t page = 0;
  {
    arch::TasGuard guard(lock_);
    // First fit: the free list is kept sorted by page, so this also prefers
    // low addresses and keeps the arena's touched prefix compact.
    std::size_t i = 0;
    for (; i < free_.size(); i++) {
      if (free_[i].pages >= pages) break;
    }
    if (i == free_.size()) return nullptr;
    page = free_[i].page;
    if (free_[i].pages == pages) {
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      free_[i].page += static_cast<std::uint32_t>(pages);
      free_[i].pages -= static_cast<std::uint32_t>(pages);
    }
    young_.push_back(page);
    cycle_top_ = std::max(cycle_top_, page + static_cast<std::uint32_t>(pages));
  }
  used_pages_.fetch_add(pages, std::memory_order_relaxed);

  char* run = base_ + std::size_t{page} * kPageBytes;
  auto* meta = reinterpret_cast<Meta*>(run);
  meta->magic = kMagic;
  meta->pages = static_cast<std::uint32_t>(pages);
  meta->obj_words = obj_words;
  meta->mark.store(0, std::memory_order_relaxed);
  meta->dirty.store(0, std::memory_order_relaxed);
  meta->young.store(1, std::memory_order_relaxed);
  return reinterpret_cast<std::uint64_t*>(run) + kMetaWords;
}

void LargeObjectSpace::clear_dirty_locked() {
  for (std::uint64_t* obj : dirty_) {
    meta_of(obj)->dirty.store(0, std::memory_order_relaxed);
  }
  dirty_.clear();
}


void LargeObjectSpace::coalesce(std::vector<Extent>& extents) {
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.page < b.page; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < extents.size(); i++) {
    if (out > 0 &&
        extents[out - 1].page + extents[out - 1].pages == extents[i].page) {
      extents[out - 1].pages += extents[i].pages;
    } else {
      extents[out++] = extents[i];
    }
  }
  extents.resize(out);
}

void LargeObjectSpace::free_run_locked(std::uint32_t page, Meta* meta,
                                       SweepResult* res) {
  res->objects_freed++;
  res->bytes_freed += meta->obj_words * kWordBytes;
  res->pages_freed += meta->pages;
  meta->magic = 0;
  free_.push_back(Extent{page, meta->pages});
}

LargeObjectSpace::SweepResult LargeObjectSpace::sweep_young() {
  SweepResult res;
  arch::TasGuard guard(lock_);
  // Before any run is freed: a listed object may be about to die.
  clear_dirty_locked();
  std::size_t kept = 0;
  for (const std::uint32_t page : young_) {
    Meta* meta = meta_of(object_at(page));
    const std::uint8_t mark = meta->mark.load(std::memory_order_relaxed);
    meta->mark.store(0, std::memory_order_relaxed);
    if (mark == 0) {
      free_run_locked(page, meta, &res);
      continue;
    }
    res.objects_live++;
    if ((mark & kReachedFromHeap) != 0) {
      meta->young.store(0, std::memory_order_relaxed);
      old_.push_back(page);
    } else {
      young_[kept++] = page;
    }
  }
  young_.resize(kept);
  // The freed runs stay below the cycle's high-water mark, so they stay
  // committed for reuse; sweep() decides what goes back to the kernel.
  if (res.objects_freed != 0) coalesce(free_);
  used_pages_.fetch_sub(static_cast<std::size_t>(res.pages_freed),
                        std::memory_order_relaxed);
  return res;
}

LargeObjectSpace::SweepResult LargeObjectSpace::sweep() {
  SweepResult res;
  arch::TasGuard guard(lock_);
  // Before any run is released: a listed object may be about to die.
  clear_dirty_locked();
  old_.insert(old_.end(), young_.begin(), young_.end());
  young_.clear();
  std::uint32_t live_top = 0;
  std::size_t kept = 0;
  for (const std::uint32_t page : old_) {
    Meta* meta = meta_of(object_at(page));
    meta->young.store(0, std::memory_order_relaxed);
    if (meta->mark.load(std::memory_order_relaxed) == 0) {
      free_run_locked(page, meta, &res);
      continue;
    }
    meta->mark.store(0, std::memory_order_relaxed);
    old_[kept++] = page;
    live_top = std::max(live_top, page + meta->pages);
    res.objects_live++;
  }
  old_.resize(kept);
  coalesce(free_);
  used_pages_.fetch_sub(static_cast<std::size_t>(res.pages_freed),
                        std::memory_order_relaxed);
  // Everything from the cycle's high-water mark up is free.  Below it the
  // freed runs stay committed for the next cycle's first-fit reuse; above
  // it, pages an earlier, larger cycle touched go back to the kernel.
  const std::uint32_t top = std::max(resident_top_, cycle_top_);
  if (cycle_top_ < top) {
    ::madvise(base_ + std::size_t{cycle_top_} * kPageBytes,
              std::size_t{top - cycle_top_} * kPageBytes, MADV_DONTNEED);
    res.pages_released = top - cycle_top_;
  }
  resident_top_ = cycle_top_;
  cycle_top_ = live_top;
  return res;
}

bool LargeObjectSpace::is_object_start(const std::uint64_t* p) const {
  if (!contains(p)) return false;
  const auto off = reinterpret_cast<const char*>(p) - base_;
  // Objects sit kMetaWords words into a page-aligned run.
  if (static_cast<std::size_t>(off) % kPageBytes != kMetaWords * kWordBytes) {
    return false;
  }
  const Meta* meta = meta_of(p);
  return meta->magic == kMagic &&
         std::size_t{meta->pages} * kPageBytes <=
             arena_bytes_ - static_cast<std::size_t>(off -
                 static_cast<std::ptrdiff_t>(kMetaWords * kWordBytes));
}

}  // namespace mp::gc
