#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>

namespace eab::sim {

Simulator::~Simulator() {
  // Destroy the callables of still-pending events; freed/fired slots hold no
  // live object (order == 0).
  for (std::uint32_t idx = 0; idx < slot_count_; ++idx) {
    Slot& slot = slot_at(idx);
    if (slot.order == 0) continue;
    void* obj = slot.ops->size ? slot.ext : slot.inline_buf;
    slot.ops->destroy(obj);
    if (slot.ops->size) overflow_.deallocate(slot.ext, slot.ops->size);
  }
}

void Simulator::compact() {
  // Keep the live nodes (slot occupant still carries the node's order stamp),
  // drop the tombstones, and restore the heap invariant with a Floyd
  // build-heap pass.  Node keys are unique, so any valid heap arrangement of
  // the same live set pops in the same (time, order) sequence — compaction
  // can never change the fire order.
  std::size_t kept = 0;
  for (const Node& node : heap_) {
    if (slot_at(slot_of(node.key)).order == order_of(node.key)) {
      heap_[kept++] = node;
    }
  }
  const std::size_t removed = heap_.size() - kept;
  heap_.resize(kept);
  tombstones_popped_ += removed;
  dead_ -= removed;
  if (kept > 1) {
    for (std::size_t hole = (kept - 2) / 4 + 1; hole-- > 0;) {
      sift_down(hole, heap_[hole]);
    }
  }
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

RunResult Simulator::run(std::size_t max_events) {
  RunResult result;
  while (result.events < max_events) {
    if (!step()) return result;  // kDrained
    ++result.events;
  }
  if (live_ > 0) result.status = RunStatus::kBudgetExhausted;
  return result;
}

std::size_t Simulator::run_until(Seconds until) {
  std::size_t n = 0;
  while (!heap_.empty()) {
    const Node top = heap_.front();
    if (slot_at(slot_of(top.key)).order != order_of(top.key)) {
      drop_tombstone();
      continue;
    }
    if (top.at > until) break;
    if (step()) ++n;
  }
  if (until > now_) now_ = until;
  return n;
}

std::string Simulator::pending_dump(std::size_t max_entries) const {
  // The heap is not sorted; collect the live entries and order them by
  // firing order.
  std::vector<std::pair<Seconds, std::uint64_t>> live;  // (at, order stamp)
  live.reserve(live_);
  for (const Node& node : heap_) {
    if (slot_at(slot_of(node.key)).order == order_of(node.key)) {
      live.emplace_back(node.at, order_of(node.key));
    }
  }
  std::sort(live.begin(), live.end());
  char buf[96];
  std::snprintf(buf, sizeof buf, "pending heap: %zu live events at t=%.6f",
                live.size(), now_);
  std::string out = buf;
  const std::size_t shown = std::min(max_entries, live.size());
  for (std::size_t i = 0; i < shown; ++i) {
    std::snprintf(buf, sizeof buf, "%s[t=%.6f seq=%llu]", i == 0 ? ": " : " ",
                  live[i].first,
                  static_cast<unsigned long long>(live[i].second));
    out += buf;
  }
  if (shown < live.size()) {
    std::snprintf(buf, sizeof buf, " ... and %zu more", live.size() - shown);
    out += buf;
  }
  return out;
}

void Simulator::throw_budget_exhausted() const {
  throw BudgetExhaustedError("Simulator: event budget exhausted after " +
                             std::to_string(fired_count_) + " events; " +
                             pending_dump());
}

void Simulator::throw_past_schedule(Seconds at, Seconds now) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "Simulator::schedule_at: time in the past (requested t=%.9g "
                "< now()=%.9g)",
                at, now);
  throw std::invalid_argument(buf);
}

void Simulator::throw_negative_delay(Seconds delay, Seconds now) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "Simulator::schedule_in: negative delay (delay=%.9g at "
                "now()=%.9g)",
                delay, now);
  throw std::invalid_argument(buf);
}

void Simulator::throw_empty_action() {
  throw std::invalid_argument("Simulator::schedule_at: empty action");
}

void Simulator::throw_slot_limit() {
  throw std::length_error(
      "Simulator: event slot pool exhausted (" + std::to_string(kMaxSlots) +
      " events pending at once)");
}

void Simulator::throw_order_overflow() {
  throw std::overflow_error(
      "Simulator: event order stamps exhausted (2^40 events scheduled over "
      "this simulator's lifetime)");
}

}  // namespace eab::sim
