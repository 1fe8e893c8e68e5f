#include "basis/add_round.hpp"

#include "obs/tracer.hpp"
#include "support/check.hpp"

namespace gbd {

AddRound::AddRound(Proc& self, std::size_t max_adds) : self_(self), max_adds_(max_adds) {
  GBD_CHECK(max_adds_ >= 1);
  self_.on(kBaInvAck, [this](Proc&, int src, Reader& r) { on_ack(src, r); });
}

void AddRound::reserve(PolyId id) {
  if (poly_id_owner(id) == self_.id() && poly_id_seq(id) >= next_seq_) {
    next_seq_ = poly_id_seq(id) + 1;
  }
}

void AddRound::open() {
  GBD_CHECK_MSG(done(), "add_open while a previous add round is still in flight");
  GBD_CHECK_MSG(!open_, "add_open twice");
  open_ = true;
  ids_.clear();
}

PolyId AddRound::push() {
  GBD_CHECK_MSG(open_, "add_push outside an open add round");
  GBD_CHECK_MSG(ids_.size() < max_adds_, "add round is full");
  ids_.push_back(make_poly_id(self_.id(), next_seq_++));
  return ids_.back();
}

const std::vector<PolyId>& AddRound::close() {
  GBD_CHECK_MSG(open_ && !ids_.empty(), "add_close on an empty add round");
  open_ = false;
  acks_missing_ = self_.nprocs() - 1;
  ack_seen_.assign(static_cast<std::size_t>(self_.nprocs()), false);
  if (ProcTracer* t = self_.tracer()) {
    t->async_begin(Ev::kAddRound, self_.now(), ids_.front(), ids_.size());
  }
  if (acks_missing_ == 0) complete();  // 1-proc degenerate round
  return ids_;
}

void AddRound::ack(Proc& self, int adder, PolyId token) {
  Writer w;
  w.u64(token);
  self.send(adder, kBaInvAck, w.take());
}

void AddRound::on_ack(int src, Reader& r) {
  PolyId token = r.u64();
  // Counted once per (round, processor): a duplicated delivery (chaos mode)
  // or an ack for a previous, already-completed round is ignored rather
  // than corrupting the in-flight count.
  if (acks_missing_ == 0 || ids_.empty() || token != ids_.front()) return;
  auto s = static_cast<std::size_t>(src);
  if (s >= ack_seen_.size() || ack_seen_[s]) return;
  ack_seen_[s] = true;
  if (--acks_missing_ == 0) complete();
}

void AddRound::complete() {
  if (ProcTracer* t = self_.tracer()) t->async_end(Ev::kAddRound, self_.now(), ids_.front());
  completed_.insert(completed_.end(), ids_.begin(), ids_.end());
}

}  // namespace gbd
