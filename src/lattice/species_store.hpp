#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/constants.hpp"

namespace tkmc {

/// CET-style packed occupation storage: fixed-size pages of 2-bit species
/// codes (4 sites per byte).
///
/// The paper's 50-trillion-atom capacity rests on never holding a dense
/// per-atom array; occupation is encoded compactly and regions that are
/// pure matrix cost nothing. This store mirrors that design at host
/// scale: sites are grouped into pages of kPageSites, a page holding only
/// the fill species stays *unallocated* (collapsed to the store-wide fill
/// value), and a page is materialized to kPageBytes of packed codes only
/// when a non-fill write touches it. A mostly-Fe box therefore costs far
/// below one byte per site (0.25 for fully-materialized pages, ~0 for
/// uniform ones) instead of the 1 byte/site of a dense `vector<Species>`.
///
/// Per-species counts are maintained incrementally on every write, so
/// counting is O(1) instead of O(sites) — countSpecies() used to be the
/// per-frame cost of trajectory dumps.
///
/// Equality and contentHash() are *canonical*: they depend only on the
/// logical per-site species, never on which pages happen to be
/// materialized or what the slack slots of the last page contain. Two
/// stores that agree site-by-site always compare equal and hash equal.
class SpeciesStore {
 public:
  /// Sites per page. 4096 sites pack to 1 KiB — small enough that a
  /// single solute atom materializes only a 1 KiB neighbourhood, large
  /// enough that page bookkeeping (one vector entry per page) is noise.
  static constexpr std::int64_t kPageSites = 4096;
  static constexpr std::size_t kPageBytes =
      static_cast<std::size_t>(kPageSites) / 4;

  explicit SpeciesStore(std::int64_t siteCount, Species fill = Species::kFe);

  std::int64_t siteCount() const { return siteCount_; }

  Species get(std::int64_t id) const {
    const std::vector<std::uint8_t>& page =
        pages_[static_cast<std::size_t>(id / kPageSites)];
    if (page.empty()) return fill_;
    const std::int64_t in = id % kPageSites;
    const std::uint8_t byte = page[static_cast<std::size_t>(in >> 2)];
    return static_cast<Species>((byte >> (2 * (in & 3))) & 3);
  }

  /// Writes one site, maintaining the per-species counts. Materializes
  /// the containing page only when `s` differs from the page's collapsed
  /// fill value.
  void set(std::int64_t id, Species s);

  /// Collapses every page back to uniform `s` and resets the counts.
  void fill(Species s);

  /// Sites currently holding `s`. O(1): maintained incrementally.
  std::int64_t count(Species s) const {
    return counts_[static_cast<std::size_t>(s)];
  }

  /// Visits every site in id order as visitor(siteId, species). Uniform
  /// pages are walked without touching memory; materialized pages decode
  /// four sites per byte.
  template <typename Visitor>
  void forEachSite(Visitor&& visit) const {
    std::int64_t id = 0;
    for (const std::vector<std::uint8_t>& page : pages_) {
      const std::int64_t end = std::min(id + kPageSites, siteCount_);
      if (page.empty()) {
        for (; id < end; ++id) visit(id, fill_);
        continue;
      }
      for (std::size_t byteIdx = 0; id < end; ++byteIdx) {
        const std::uint8_t byte = page[byteIdx];
        for (int slot = 0; slot < 4 && id < end; ++slot, ++id)
          visit(id, static_cast<Species>((byte >> (2 * slot)) & 3));
      }
    }
  }

  /// Canonical logical equality (site count and per-site species).
  bool operator==(const SpeciesStore& other) const;
  bool operator!=(const SpeciesStore& other) const { return !(*this == other); }

  /// CRC32 over the canonical packed pages (uniform pages hashed as
  /// their synthesized pattern, slack slots of the last page masked to
  /// zero). Equal stores hash equal regardless of materialization
  /// history; a cheap fingerprint for cross-engine trajectory checks.
  std::uint32_t contentHash() const;

  /// Actual allocated footprint: materialized page bytes plus the page
  /// table and counters. The dense-representation baseline for the same
  /// box is siteCount() bytes.
  std::size_t memoryBytes() const;

  double bytesPerSite() const {
    return siteCount_ == 0 ? 0.0
                           : static_cast<double>(memoryBytes()) /
                                 static_cast<double>(siteCount_);
  }

  std::int64_t pageCount() const {
    return static_cast<std::int64_t>(pages_.size());
  }
  std::int64_t materializedPageCount() const;

  /// CRC32 fingerprint of page `page`'s canonical packed bytes. Like
  /// contentHash() this is materialization-history-invariant: a uniform
  /// page and a materialized page holding the same species hash equal.
  /// Incremental (delta) checkpoints diff epochs at page granularity by
  /// comparing these fingerprints, making dirty-page detection O(pages)
  /// instead of O(sites).
  std::uint32_t pageHash(std::int64_t page) const;

  /// All page fingerprints in page order (siteCount()/kPageSites rounded
  /// up entries).
  std::vector<std::uint32_t> pageHashes() const;

  /// Indices of pages whose fingerprint differs from `baseline`
  /// (ascending). Pages past the end of `baseline` count as dirty, so a
  /// grown store diffs cleanly against an older, smaller baseline.
  std::vector<std::int64_t> dirtyPages(
      const std::vector<std::uint32_t>& baseline) const;

  /// Page fingerprints of an unpacked one-byte-per-site species run —
  /// identical to pageHashes() of a store holding that run. Checkpoint
  /// shards carry their occupation as such runs (Subdomain::ownedSpecies
  /// order), so the delta writer fingerprints them without building a
  /// store.
  static std::vector<std::uint32_t> runPageHashes(
      const std::vector<std::uint8_t>& run);

 private:
  /// A byte holding `s` in all four 2-bit slots.
  static std::uint8_t pattern(Species s) {
    const std::uint8_t c = static_cast<std::uint8_t>(s);
    return static_cast<std::uint8_t>(c | (c << 2) | (c << 4) | (c << 6));
  }

  /// Writes page `p`'s canonical packed bytes into `out[kPageBytes]`:
  /// synthesized pattern for uniform pages, stored bytes otherwise, and
  /// slack slots past siteCount() masked to zero.
  void canonicalPageBytes(std::size_t p, std::uint8_t* out) const;

  std::int64_t siteCount_ = 0;
  Species fill_ = Species::kFe;
  // Empty vector == uniform page collapsed to fill_.
  std::vector<std::vector<std::uint8_t>> pages_;
  std::array<std::int64_t, 3> counts_{};
};

}  // namespace tkmc
