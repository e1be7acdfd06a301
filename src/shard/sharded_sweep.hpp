// Sharded multicolor m-step SSOR sweep — the paper's machine made real.
//
// Each shard owns one contiguous strip of every color block (ShardPlan)
// and keeps a full-length local replica of z whose off-shard entries are
// ONLY ever written by halo exchange (HaloPlan + GhostMailbox).  The
// sweep runs as a sequence of lockstep phases: one pool dispatch over all
// shards per class update, with the pool rendezvous as the inter-phase
// barrier.  Shard bodies never block on each other, so any shards x
// threads combination is deadlock-free (7 shards on a 1-thread pool just
// runs the bodies sequentially).
//
// Inside a phase a shard: (1) drains the mailboxes of the class updated
// in the previous phase into its replica, (2) computes its strip's
// segment sums FROM THE REPLICA, (3) updates its boundary rows and posts
// them, then (4) updates its interior rows — the halo send overlaps the
// interior work.  Reading the replica instead of the shared z is what
// makes the halo plan load-bearing: an under-fetched ghost row would
// leave stale bits in the replica and break the bitwise-vs-serial
// equivalence tests/test_shard.cpp asserts.
//
// Determinism: every per-row kernel is the serial sweep's kernel
// (la::ClassSegments::neg_sums gives each row the same bits however the
// rows are split), every row is written by exactly one shard, and phase
// order is the serial class order — so the sharded apply is bitwise
// identical to core::MulticolorMStepSsor::apply in the same segment
// layout for any shard count, and emits the identical KernelLog stream.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/kernel_log.hpp"
#include "core/preconditioner.hpp"
#include "la/class_segments.hpp"
#include "par/thread_pool.hpp"
#include "shard/halo.hpp"
#include "shard/partition.hpp"

namespace mstep::shard {

class ShardedMulticolorMStepSsor final : public core::Preconditioner {
 public:
  /// Debug builds verify every ghost payload's checksum at take-time.
#ifndef NDEBUG
  static constexpr bool kVerifyHaloDefault = true;
#else
  static constexpr bool kVerifyHaloDefault = false;
#endif

  /// `verify_halo` turns on the per-take checksum check (tests force it
  /// on to exercise the corruption path).  `layout` is the segment layout
  /// of the serial sweep this one must match bitwise.
  ShardedMulticolorMStepSsor(
      const color::ColoredSystem& cs, std::vector<double> alphas,
      const ShardPlan& plan, par::ThreadPool& pool,
      core::KernelLog* log = nullptr, bool verify_halo = kVerifyHaloDefault,
      la::SegmentLayout layout = la::SegmentLayout::kSell);

  [[nodiscard]] index_t size() const override { return cs_->size(); }
  void apply(const Vec& r, Vec& z) const override;
  [[nodiscard]] int steps() const override {
    return static_cast<int>(alphas_.size());
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  [[nodiscard]] const HaloPlan& halo() const { return halo_; }

 private:
  struct Phase;
  void run_phase(const Phase& phase, const Vec& r, Vec& z) const;

  const color::ColoredSystem* cs_;
  std::vector<double> alphas_;
  par::ThreadPool* pool_;
  core::KernelLog* log_;
  bool verify_halo_;
  color::RowSplits splits_;
  color::ClassDiagonalCensus census_;
  ShardPlan plan_;
  HaloPlan halo_;

  // Per shard, per class: the strip's strictly-lower / strictly-upper
  // segments (the serial kernels, restricted to owned rows).
  std::vector<std::vector<la::ClassSegments>> lower_;  // [shard][class]
  std::vector<std::vector<la::ClassSegments>> upper_;

  // Mailboxes and scratch are mutable: apply() is logically const but
  // stages per-phase state through them (same pattern as the serial
  // sweep's y_/xl_ scratch).
  mutable std::vector<GhostMailbox> mail_;  // [to][from][class], recv-sized
  mutable std::vector<Vec> zloc_;           // per-shard replica of z
  mutable Vec y_;
  mutable Vec xl_;

  [[nodiscard]] GhostMailbox& mailbox(int to, int from, int c) const {
    return mail_[(static_cast<std::size_t>(to) * plan_.num_shards() + from) *
                     plan_.num_classes() +
                 c];
  }
};

}  // namespace mstep::shard
