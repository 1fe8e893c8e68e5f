#include "basis/hybrid_basis.hpp"

#include "support/check.hpp"

namespace gbd {

HybridBasis::HybridBasis(Proc& self, HybridConfig cfg)
    : self_(self), cfg_(cfg), round_(self, 1), reducer_view_(this) {
  if (cfg_.homes < 1) cfg_.homes = 1;
  if (cfg_.homes > self.nprocs()) cfg_.homes = self.nprocs();
  // A non-home processor must be able to hold at least a working set of
  // fetched bodies (the two polynomials of a pair plus a couple of
  // reducers); with zero cache it could never materialize any body and the
  // engine would deadlock on its own fetches.
  if (cfg_.homes < self.nprocs() && cfg_.cache_capacity < 4) cfg_.cache_capacity = 4;
  self_.on(kBaInvalidate, [this](Proc&, int src, Reader& r) { on_invalidate(src, r); });
  self_.on(kBaFetch, [this](Proc&, int src, Reader& r) { on_fetch(src, r); });
  self_.on(kBaBody, [this](Proc&, int, Reader& r) { on_body(r, /*as_home=*/false); });
  self_.on(kBaHomeBody, [this](Proc&, int, Reader& r) { on_body(r, /*as_home=*/true); });
}

bool HybridBasis::is_home(PolyId id) const {
  int p = self_.nprocs();
  int dist = (self_.id() - poly_id_owner(id) + p) % p;
  return dist < cfg_.homes;
}

int HybridBasis::tree_parent(int owner) const {
  int p = self_.nprocs();
  int pos = (self_.id() - owner + p) % p;
  GBD_CHECK_MSG(pos != 0, "owner routing to itself");
  return ((pos - 1) / 2 + owner) % p;
}

void HybridBasis::announce(PolyId id, Monomial head) {
  auto [it, inserted] = head_index_.emplace(id, head);
  if (inserted) {
    if (ruler_.nvars() != head.nvars()) ruler_ = DivMaskRuler(head.nvars());
    head_masks_.push_back(ruler_.mask(head));
    known_heads_.emplace_back(id, std::move(head));
  }
}

void HybridBasis::touch(PolyId id) {
  auto pos = lru_pos_.find(id);
  if (pos == lru_pos_.end()) return;  // home body: not subject to eviction
  lru_.splice(lru_.end(), lru_, pos->second);
}

void HybridBasis::store_body(PolyId id, Polynomial poly) {
  if (resident_.count(id) > 0) return;
  if (!is_home(id)) {
    if (cfg_.cache_capacity == 0) return;  // nothing may be cached here
    while (lru_.size() >= cfg_.cache_capacity) {
      PolyId victim = lru_.front();
      lru_.pop_front();
      lru_pos_.erase(victim);
      resident_.erase(victim);
      stats_.evictions += 1;
    }
    lru_.push_back(id);
    lru_pos_[id] = std::prev(lru_.end());
  }
  resident_.emplace(id, std::move(poly));
  stats_.max_resident = std::max(stats_.max_resident, resident_.size());
}

void HybridBasis::preload(PolyId id, Polynomial poly) {
  GBD_CHECK_MSG(head_index_.find(id) == head_index_.end(), "preload of duplicate id");
  round_.reserve(id);
  announce(id, poly.hmono());
  // Inputs are resident everywhere regardless of the home policy (they are
  // part of the program text, not communicated state).
  resident_.emplace(id, std::move(poly));
  stats_.max_resident = std::max(stats_.max_resident, resident_.size());
}

PolyId HybridBasis::add_push(Polynomial poly) {
  PolyId id = round_.push();
  announce(id, poly.hmono());

  // Eagerly place the body on the other home processors.
  Writer body_msg;
  body_msg.u64(id);
  poly.write(body_msg);
  const std::vector<std::uint8_t> body_payload = body_msg.take();
  for (int k = 1; k < cfg_.homes; ++k) {
    self_.send((self_.id() + k) % self_.nprocs(), kBaHomeBody, body_payload);
  }

  resident_.emplace(id, std::move(poly));  // owner is always a home
  stats_.max_resident = std::max(stats_.max_resident, resident_.size());
  return id;
}

void HybridBasis::add_close() {
  for (PolyId id : round_.close()) {
    for (int p = 0; p < self_.nprocs(); ++p) {
      if (p == self_.id()) continue;
      Writer w;
      w.u64(id);
      head_index_.at(id).write(w);
      self_.send(p, kBaInvalidate, w.take());
      stats_.invalidations_sent += 1;
    }
  }
}

void HybridBasis::on_invalidate(int src, Reader& r) {
  PolyId id = r.u64();
  Monomial head = Monomial::read(r);
  announce(id, std::move(head));
  AddRound::ack(self_, src, id);
}

void HybridBasis::prefetch(PolyId id) {
  if (resident_.count(id) > 0) return;
  request_body(id);
}

void HybridBasis::request_body(PolyId id) {
  auto [it, inserted] = fetch_in_flight_.emplace(id, true);
  if (!inserted) return;
  Writer w;
  w.u64(id);
  self_.send(tree_parent(poly_id_owner(id)), kBaFetch, w.take());
  stats_.fetches_sent += 1;
}

void HybridBasis::on_fetch(int src, Reader& r) {
  PolyId id = r.u64();
  auto it = resident_.find(id);
  if (it != resident_.end()) {
    touch(id);
    Writer w;
    w.u64(id);
    it->second.write(w);
    self_.send(src, kBaBody, w.take());
    stats_.bodies_served += 1;
    return;
  }
  pending_requesters_[id].push_back(src);
  request_body(id);
}

void HybridBasis::on_body(Reader& r, bool as_home) {
  PolyId id = r.u64();
  Polynomial poly = Polynomial::read(r);
  stats_.bodies_received += 1;
  fetch_in_flight_.erase(id);
  announce(id, poly.hmono());  // a body can overtake its invalidation

  auto pend = pending_requesters_.find(id);
  if (pend != pending_requesters_.end()) {
    Writer w;
    w.u64(id);
    poly.write(w);
    const std::vector<std::uint8_t> payload = w.take();
    for (int child : pend->second) {
      self_.send(child, kBaBody, payload);
      stats_.bodies_forwarded += 1;
    }
    pending_requesters_.erase(pend);
  }
  // A home push always sticks; a fetched copy goes through the cache policy.
  if (as_home) {
    GBD_CHECK_MSG(is_home(id), "home push delivered to a non-home processor");
  }
  store_body(id, std::move(poly));
}

const Polynomial* HybridBasis::find(PolyId id) {
  auto it = resident_.find(id);
  if (it == resident_.end()) return nullptr;
  touch(id);
  return &it->second;
}

PolyId HybridBasis::pending_reducer(const Monomial& m) const {
  for (const auto& [id, head] : known_heads_) {
    if (resident_.count(id) == 0 && head.divides(m)) return id;
  }
  return 0;
}

const Polynomial* HybridBasis::ReducerView::find_reducer(const Monomial& m,
                                                         std::uint64_t* out_id) const {
  if (b_->known_heads_.empty()) return nullptr;
  FindReducerStats& st = find_reducer_stats();
  st.calls += 1;
  const std::uint64_t tmask = b_->ruler_.mask(m);
  const Polynomial* best = nullptr;
  PolyId best_id = 0;
  std::size_t best_bits = 0, best_terms = 0;
  for (std::size_t i = 0; i < b_->known_heads_.size(); ++i) {
    st.probes += 1;
    // Mask test first: it is cheaper than both the exponent walk and the
    // residency map lookup it gates.
    if (!DivMaskRuler::may_divide(b_->head_masks_[i], tmask)) {
      st.mask_rejects += 1;
      continue;
    }
    const auto& [id, head] = b_->known_heads_[i];
    st.divides_calls += 1;
    if (!head.divides(m)) continue;
    auto it = b_->resident_.find(id);
    if (it == b_->resident_.end()) continue;
    std::size_t gbits = it->second.hcoef().bit_length();
    std::size_t gterms = it->second.nterms();
    if (best == nullptr || gbits < best_bits || (gbits == best_bits && gterms < best_terms)) {
      best = &it->second;
      best_id = id;
      best_bits = gbits;
      best_terms = gterms;
    }
  }
  if (best != nullptr) {
    b_->touch(best_id);
    if (out_id) *out_id = best_id;
  }
  return best;
}

}  // namespace gbd
