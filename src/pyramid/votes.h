#ifndef ANC_PYRAMID_VOTES_H_
#define ANC_PYRAMID_VOTES_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace anc {

/// Reads votes from same-seed bits (Section V-C Remarks): bit p % 8 of byte
/// columns[(level - 1) * groups() + p / 8][e] is set iff pyramid p puts both
/// endpoints of edge e under one seed at `level`. The vote of e is the count
/// of set bits, and H_l passes it at >= threshold() (Section V-B). For
/// k <= 8, one byte per edge and level, a 256-entry table answers H_l.
class VoteRule {
 public:
  VoteRule() : VoteRule(1, 1) {}
  VoteRule(uint32_t num_pyramids, uint32_t threshold)
      : groups_((num_pyramids + 7) / 8), threshold_(threshold) {
    for (uint32_t byte = 0; byte < passes_.size(); ++byte) {
      passes_[byte] = static_cast<uint32_t>(std::popcount(byte)) >= threshold;
    }
  }

  uint32_t groups() const { return groups_; }
  uint32_t threshold() const { return threshold_; }

  /// Out of line, so the query kernels' edge loops inline only the table
  /// lookup of Passes: inlined there, this sum made Clusters() ~20% slower
  /// (BA graph, n = 12,630, m = 113,625, k = 4, 4-vCPU x86-64 box).
  template <typename Columns>
  [[gnu::noinline]] uint32_t Votes(const Columns& columns, EdgeId e,
                                   uint32_t level) const {
    const size_t first = static_cast<size_t>(level - 1) * groups_;
    uint32_t votes = 0;
    for (size_t g = first; g < first + groups_; ++g) {
      votes += static_cast<uint32_t>(std::popcount(columns[g][e]));
    }
    return votes;
  }
  template <typename Columns>
  bool Passes(const Columns& columns, EdgeId e, uint32_t level) const {
    if (groups_ == 1) [[likely]] return passes_[columns[level - 1][e]];
    return Votes(columns, e, level) >= threshold_;
  }

  /// H_l at one level for k <= 8, bound once: `column` is the level's byte
  /// column, read through the 256-entry table. The rule and the column must
  /// outlive the returned test.
  auto ByteTest(const uint8_t* column) const {
    return [this, column](EdgeId e) { return passes_[column[e]]; };
  }

  bool operator==(const VoteRule& other) const = default;

 private:
  uint32_t groups_;
  uint32_t threshold_;
  std::array<bool, 256> passes_{};
};

/// An immutable copy of an index's same-seed bits, read as votes:
/// table[level - 1][e] is the vote of edge e at `level`, in [0, k].
class VoteTable {
 public:
  class Row {
   public:
    Row(const VoteTable* table, uint32_t level)
        : table_(table), level_(level) {}
    uint32_t operator[](EdgeId e) const { return table_->Votes(e, level_); }

   private:
    const VoteTable* table_;
    uint32_t level_;
  };

  VoteTable() = default;
  VoteTable(VoteRule rule, std::vector<std::vector<uint8_t>> columns)
      : rule_(rule), columns_(std::move(columns)) {}

  uint32_t num_levels() const {
    return static_cast<uint32_t>(columns_.size() / rule_.groups());
  }
  uint32_t threshold() const { return rule_.threshold(); }
  uint32_t Votes(EdgeId e, uint32_t level) const {
    return rule_.Votes(columns_, e, level);
  }
  bool Passes(EdgeId e, uint32_t level) const {
    return rule_.Passes(columns_, e, level);
  }
  /// Returns fn(test), where test(e) == Passes(e, level) is bound to the
  /// level once: for k <= 8 a VoteRule::ByteTest over the level's column,
  /// otherwise the per-edge vote sum.
  template <typename Fn>
  auto WithPassTest(uint32_t level, Fn&& fn) const {
    if (rule_.groups() == 1) {
      return fn(rule_.ByteTest(columns_[level - 1].data()));
    }
    return fn([this, level](EdgeId e) { return Passes(e, level); });
  }
  Row operator[](size_t level_index) const {
    return Row(this, static_cast<uint32_t>(level_index) + 1);
  }
  Row back() const { return (*this)[num_levels() - 1]; }

  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const auto& column : columns_) bytes += column.capacity();
    return bytes;
  }

  bool operator==(const VoteTable& other) const = default;

 private:
  VoteRule rule_;
  std::vector<std::vector<uint8_t>> columns_;
};

}  // namespace anc

#endif  // ANC_PYRAMID_VOTES_H_
