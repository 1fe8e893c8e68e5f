#include "basis/replicated_basis.hpp"

#include <cstring>

#include "machine/chaos.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "support/check.hpp"

namespace gbd {

ReplicatedBasis::ReplicatedBasis(Proc& self, BasisWireConfig wire)
    : self_(self),
      wire_(wire),
      round_(self, wire.batch_invalidations ? kBatchRoundAdds : 1),
      reducer_view_(this) {
  self_.on(kBaInvalidate, [this](Proc&, int src, Reader& r) { on_invalidate(src, r); });
  self_.on(kBaInvBatch, [this](Proc&, int src, Reader& r) { on_inv_batch(src, r); });
  self_.on(kBaFetch, [this](Proc&, int src, Reader& r) { on_fetch(src, r); });
  self_.on(kBaFetchBatch, [this](Proc&, int src, Reader& r) { on_fetch_batch(src, r); });
  self_.on(kBaBody, [this](Proc&, int, Reader& r) { on_body(r); });
  self_.on(kBaBodyBatch, [this](Proc&, int, Reader& r) { on_body_batch(r); });
}

void ReplicatedBasis::preload(PolyId id, Polynomial poly) {
  GBD_CHECK_MSG(replica_.find(id) == replica_.end(), "preload of duplicate id");
  round_.reserve(id);
  store(id, std::move(poly));
}

void ReplicatedBasis::announce(PolyId id, const Monomial& head) {
  for (const auto& [kid, khead] : known_heads_) {
    if (kid == id) return;
  }
  known_heads_.emplace_back(id, head);
}

void ReplicatedBasis::store(PolyId id, Polynomial poly) {
  announce(id, poly.hmono());
  auto [it, inserted] = replica_.emplace(id, std::move(poly));
  if (inserted) {
    order_.push_back(id);
    const Polynomial& body = it->second;
    if (ruler_.nvars() != body.hmono().nvars()) ruler_ = DivMaskRuler(body.hmono().nvars());
    order_masks_.push_back(ruler_.mask(body.hmono()));
    order_body_.push_back(&body);
  }
  stats_.max_resident = std::max(stats_.max_resident, replica_.size());
}

const Polynomial* ReplicatedBasis::find(PolyId id) const {
  auto it = replica_.find(id);
  return it == replica_.end() ? nullptr : &it->second;
}

bool ReplicatedBasis::known(PolyId id) const {
  return replica_.count(id) > 0 || shadow_.count(id) > 0;
}

int ReplicatedBasis::tree_parent(int owner) const {
  int p = self_.nprocs();
  int pos = (self_.id() - owner + p) % p;
  GBD_CHECK_MSG(pos != 0, "owner routing to itself");
  int parent_pos = (pos - 1) / 2;
  return (parent_pos + owner) % p;
}

PolyId ReplicatedBasis::add_push(Polynomial poly) {
  PolyId id = round_.push();
  store(id, std::move(poly));  // locally visible at once: later members reduce against it
  return id;
}

void ReplicatedBasis::add_close() {
  const std::vector<PolyId>& ids = round_.close();
  stats_.invalidations_sent += ids.size() * static_cast<std::uint64_t>(self_.nprocs() - 1);
  if (!wire_.batch_invalidations) {
    for (PolyId id : ids) {
      for (int p = 0; p < self_.nprocs(); ++p) {
        if (p == self_.id()) continue;
        Writer w;
        w.u64(id);
        replica_.at(id).hmono().write(w);
        self_.send(p, kBaInvalidate, w.take());
      }
    }
    return;
  }
  if (self_.nprocs() == 1) return;
  Writer w;
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (PolyId id : ids) {
    w.u64(id);
    replica_.at(id).hmono().write(w);
  }
  const std::vector<std::uint8_t> payload = w.take();
  for (int p = 0; p < self_.nprocs(); ++p) {
    if (p == self_.id()) continue;
    self_.send(p, kBaInvBatch, payload);
    stats_.invalidation_batches += 1;
  }
}

void ReplicatedBasis::on_invalidate(int src, Reader& r) {
  PolyId id = r.u64();
  Monomial head = Monomial::read(r);
  // Injected fault (chaos harness only): acknowledge the invalidation but
  // "lose" it before applying — the classic ack-before-apply lost update. The
  // coherence checker must catch this; see ChaosConfig::fault_drop_invalidate.
  const ChaosConfig* chaos = self_.chaos();
  if (chaos != nullptr && chaos->fault_drop_invalidate_permille > 0) {
    std::uint64_t draw = chaos_mix2(chaos->seed ^ 0x464449ULL,
                                    (static_cast<std::uint64_t>(self_.id()) << 40) ^ fault_draws_++);
    if (draw % 1000 < chaos->fault_drop_invalidate_permille) {
      AddRound::ack(self_, src, id);
      return;
    }
  }
  announce(id, head);
  // The body may already be resident if a fetched copy overtook the
  // invalidation (delivery is by arrival time, not FIFO).
  if (replica_.find(id) == replica_.end()) {
    shadow_.emplace(id, std::move(head));
  }
  AddRound::ack(self_, src, id);
  if (on_invalidate_) on_invalidate_(id);
}

void ReplicatedBasis::on_inv_batch(int src, Reader& r) {
  // Same contract as on_invalidate, amortized: announce/shadow every id of
  // the round, then acknowledge once with the round token (its first id).
  // Announce and shadow insertion both deduplicate, so a duplicated or
  // reordered batch delivery is as harmless as a duplicated single one.
  std::uint32_t count = r.u32();
  GBD_CHECK_MSG(count > 0, "empty invalidation batch");
  PolyId token = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    PolyId id = r.u64();
    Monomial head = Monomial::read(r);
    if (i == 0) token = id;
    // Injected fault (chaos harness only), drawn per id exactly as in
    // on_invalidate: the batch is acked but this id is "lost" before
    // applying — the coherence checker must catch it in the batched
    // protocol too.
    const ChaosConfig* chaos = self_.chaos();
    if (chaos != nullptr && chaos->fault_drop_invalidate_permille > 0) {
      std::uint64_t draw = chaos_mix2(chaos->seed ^ 0x464449ULL,
                                      (static_cast<std::uint64_t>(self_.id()) << 40) ^ fault_draws_++);
      if (draw % 1000 < chaos->fault_drop_invalidate_permille) continue;
    }
    announce(id, head);
    if (replica_.find(id) == replica_.end()) {
      shadow_.emplace(id, std::move(head));
    }
    if (on_invalidate_) on_invalidate_(id);
  }
  AddRound::ack(self_, src, token);
}

void ReplicatedBasis::begin_validate() {
  if (ProcTracer* t = self_.tracer(); t != nullptr && !validate_open_ && !shadow_.empty()) {
    // One async round per shadow-drain episode: opened at the first fetch
    // wave, closed when the shadow set empties in absorb_body.
    validate_open_ = true;
    t->async_begin(Ev::kValidate, self_.now(), ++validate_rounds_, shadow_.size());
  }
  if (!wire_.batch_fetches) {
    for (const auto& [id, head] : shadow_) {
      request_body(id);
    }
    return;
  }
  std::vector<PolyId> wanted;
  wanted.reserve(shadow_.size());
  for (const auto& [id, head] : shadow_) wanted.push_back(id);
  request_bodies(wanted);
}

void ReplicatedBasis::request_bodies(const std::vector<PolyId>& ids) {
  if (!wire_.batch_fetches) {
    for (PolyId id : ids) request_body(id);
    return;
  }
  // Group by tree parent so the whole validation round costs one envelope
  // per distinct upstream hop instead of one per id.
  std::map<int, std::vector<PolyId>> by_parent;
  for (PolyId id : ids) {
    if (!fetch_in_flight_.emplace(id, true).second) continue;  // already requested
    by_parent[tree_parent(poly_id_owner(id))].push_back(id);
    stats_.fetches_sent += 1;
  }
  for (auto& [parent, list] : by_parent) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(list.size()));
    for (PolyId id : list) w.u64(id);
    self_.send(parent, kBaFetchBatch, w.take());
    stats_.fetch_batches += 1;
  }
}

void ReplicatedBasis::request_body(PolyId id) {
  auto [it, inserted] = fetch_in_flight_.emplace(id, true);
  if (!inserted) return;  // already requested (by us or on behalf of a child)
  Writer w;
  w.u64(id);
  self_.send(tree_parent(poly_id_owner(id)), kBaFetch, w.take());
  stats_.fetches_sent += 1;
}

void ReplicatedBasis::on_fetch(int src, Reader& r) {
  PolyId id = r.u64();
  const Polynomial* body = find(id);
  if (body != nullptr) {
    Writer w;
    w.u64(id);
    body->write(w);
    self_.send(src, kBaBody, w.take());
    stats_.bodies_served += 1;
    return;
  }
  // Not resident here: remember the requester and pull from our own parent.
  // (We may not even have seen the invalidation yet; that is fine — the
  // owner at the tree root definitely has the body.)
  pending_requesters_[id].push_back(src);
  request_body(id);
}

void ReplicatedBasis::on_fetch_batch(int src, Reader& r) {
  std::uint32_t count = r.u32();
  GBD_CHECK_MSG(count > 0, "empty fetch batch");
  Writer reply;
  std::uint32_t resident = 0;
  reply.u32(0);  // patched below
  std::vector<PolyId> missing;
  for (std::uint32_t i = 0; i < count; ++i) {
    PolyId id = r.u64();
    const Polynomial* body = find(id);
    if (body != nullptr) {
      reply.u64(id);
      body->write(reply);
      resident += 1;
      stats_.bodies_served += 1;
    } else {
      pending_requesters_[id].push_back(src);
      missing.push_back(id);
    }
  }
  if (resident > 0) {
    std::vector<std::uint8_t> payload = reply.take();
    std::memcpy(payload.data(), &resident, sizeof resident);
    self_.send(src, kBaBodyBatch, std::move(payload));
    stats_.body_batches += 1;
  }
  // Pull everything we lack from our own parents, batched per hop again.
  if (!missing.empty()) request_bodies(missing);
}

std::vector<int> ReplicatedBasis::absorb_body(PolyId id, Polynomial poly) {
  stats_.bodies_received += 1;
  fetch_in_flight_.erase(id);
  std::vector<int> children;
  auto pend = pending_requesters_.find(id);
  if (pend != pending_requesters_.end()) {
    children = std::move(pend->second);
    pending_requesters_.erase(pend);
  }
  // Store before erasing the shadow entry, and only then let the caller
  // forward to waiting children. send() is a scheduling point, and the
  // original erase-forward-store order left a window where the id was in
  // neither the shadow set nor the replica — a transiently "unknown"
  // element that the chaos harness's coherence sweep caught (a completed
  // AddToSet demands known-everywhere).
  store(id, std::move(poly));
  shadow_.erase(id);
  if (validate_open_ && shadow_.empty()) {
    validate_open_ = false;
    if (ProcTracer* t = self_.tracer()) t->async_end(Ev::kValidate, self_.now(), validate_rounds_);
  }
  return children;
}

void ReplicatedBasis::on_body(Reader& r) {
  PolyId id = r.u64();
  Polynomial poly = Polynomial::read(r);
  std::vector<std::uint8_t> payload;
  {
    Writer w;
    w.u64(id);
    poly.write(w);
    payload = w.take();
  }
  std::vector<int> children = absorb_body(id, std::move(poly));
  for (int child : children) {
    self_.send(child, kBaBody, payload);
    stats_.bodies_forwarded += 1;
  }
}

void ReplicatedBasis::on_body_batch(Reader& r) {
  std::uint32_t count = r.u32();
  GBD_CHECK_MSG(count > 0, "empty body batch");
  // Absorb every body first (all stores precede any forward), collecting
  // which ids each waiting child needs; then unwind with one batched
  // envelope per child.
  std::map<int, std::vector<PolyId>> per_child;
  for (std::uint32_t i = 0; i < count; ++i) {
    PolyId id = r.u64();
    Polynomial poly = Polynomial::read(r);
    for (int child : absorb_body(id, std::move(poly))) {
      per_child[child].push_back(id);
    }
  }
  for (auto& [child, ids] : per_child) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(ids.size()));
    for (PolyId id : ids) {
      w.u64(id);
      replica_.at(id).write(w);
      stats_.bodies_forwarded += 1;
    }
    self_.send(child, kBaBodyBatch, w.take());
    stats_.body_batches += 1;
  }
}

const Polynomial* ReplicatedBasis::ReducerView::find_reducer(const Monomial& m,
                                                             std::uint64_t* out_id) const {
  // Same preference policy as VectorReducerSet (see reducer_preferred) so
  // sequential and parallel reductions cost alike; same divmask prefilter
  // and carried best-key so they probe alike too.
  if (b_->order_.empty()) return nullptr;
  FindReducerStats& st = find_reducer_stats();
  st.calls += 1;
  const std::uint64_t tmask = b_->ruler_.mask(m);
  const Polynomial* best = nullptr;
  PolyId best_id = 0;
  std::size_t best_bits = 0, best_terms = 0;
  for (std::size_t i = 0; i < b_->order_.size(); ++i) {
    st.probes += 1;
    if (!DivMaskRuler::may_divide(b_->order_masks_[i], tmask)) {
      st.mask_rejects += 1;
      continue;
    }
    const Polynomial& g = *b_->order_body_[i];
    if (g.is_zero()) continue;
    st.divides_calls += 1;
    if (!g.hmono().divides(m)) continue;
    std::size_t gbits = g.hcoef().bit_length();
    std::size_t gterms = g.nterms();
    if (best == nullptr || gbits < best_bits || (gbits == best_bits && gterms < best_terms)) {
      best = &g;
      best_id = b_->order_[i];
      best_bits = gbits;
      best_terms = gterms;
    }
  }
  if (best && out_id) *out_id = best_id;
  return best;
}

// --- lock ---------------------------------------------------------------------

LockManager::LockManager(Proc& self) : self_(self) {
  self_.on(kLkRequest, [this](Proc&, int src, Reader&) {
    if (!held_) {
      held_ = true;
      self_.send(src, kLkGrant, {});
    } else {
      queue_.push_back(src);
    }
  });
  self_.on(kLkRelease, [this](Proc&, int, Reader&) {
    GBD_CHECK_MSG(held_, "release of a lock nobody holds");
    if (queue_.empty()) {
      held_ = false;
    } else {
      int next = queue_.front();
      queue_.erase(queue_.begin());
      self_.send(next, kLkGrant, {});
    }
  });
}

LockClient::LockClient(Proc& self, int coordinator) : self_(self), coordinator_(coordinator) {
  self_.on(kLkGrant, [this](Proc&, int, Reader&) {
    GBD_CHECK_MSG(requested_ && !granted_, "unexpected lock grant");
    granted_ = true;
    std::uint64_t waited = self_.now() - request_time_;
    wait_units_ += waited;
    if (ProcTracer* t = self_.tracer()) t->async_end(Ev::kLockWait, self_.now(), rounds_);
    if (ProcTelemetry* te = self_.telemetry()) {
      te->hist(TeleHist::kLockWait).record(waited);
    }
  });
}

void LockClient::request() {
  GBD_CHECK_MSG(!requested_, "lock already requested");
  requested_ = true;
  request_time_ = self_.now();
  rounds_ += 1;
  if (ProcTracer* t = self_.tracer()) t->async_begin(Ev::kLockWait, request_time_, rounds_);
  self_.send(coordinator_, kLkRequest, {});
}

void LockClient::release() {
  GBD_CHECK_MSG(granted_, "release without grant");
  granted_ = false;
  requested_ = false;
  self_.send(coordinator_, kLkRelease, {});
}

}  // namespace gbd
