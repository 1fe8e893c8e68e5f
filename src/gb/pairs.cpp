#include "gb/pairs.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace gbd {

std::vector<std::size_t> gm_new_pairs(const PolyContext& ctx,
                                      const std::vector<Monomial>& heads, const Monomial& hr,
                                      GmPruneCounts* counts) {
  GmPruneCounts local;
  GmPruneCounts& c = counts ? *counts : local;
  std::size_t n = heads.size();
  std::vector<Monomial> lcms;
  lcms.reserve(n);
  for (const Monomial& h : heads) lcms.push_back(Monomial::lcm(h, hr));

  std::vector<bool> dropped(n, false);
  // M: strict-divisor lcm elsewhere.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (lcms[j].divides(lcms[i]) && lcms[j] != lcms[i]) {
        dropped[i] = true;
        c.m_rule += 1;
        break;
      }
    }
  }
  // F: one representative per equal-lcm group; none if a member is coprime.
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < n; ++i) {
    if (dropped[i]) continue;
    bool group_handled = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (!dropped[j] && lcms[j] == lcms[i]) {
        group_handled = true;  // an earlier member represents (or killed) the group
        break;
      }
    }
    if (group_handled) {
      c.f_rule += 1;
      dropped[i] = true;
      continue;
    }
    // Group representative: if ANY group member is coprime, the whole group
    // is superfluous.
    bool group_coprime = false;
    for (std::size_t j = i; j < n; ++j) {
      if (lcms[j] == lcms[i] && Monomial::coprime(heads[j], hr)) {
        group_coprime = true;
        break;
      }
    }
    if (group_coprime) {
      c.coprime += 1;
      dropped[i] = true;
      continue;
    }
    kept.push_back(i);
  }
  (void)ctx;
  return kept;
}

GmSplit gm_split(const PolyContext& ctx, const std::vector<Monomial>& heads,
                 const Monomial& hr, GbStats* stats) {
  stats->pairs_created += heads.size();
  GmPruneCounts gm;
  GmSplit out;
  out.kept = gm_new_pairs(ctx, heads, hr, &gm);
  stats->pairs_pruned_coprime += gm.coprime;
  stats->pairs_pruned_chain += gm.m_rule + gm.f_rule;
  std::size_t next_kept = 0;
  for (std::size_t i = 0; i < heads.size(); ++i) {
    if (next_kept < out.kept.size() && out.kept[next_kept] == i) {
      ++next_kept;
    } else if (Monomial::coprime(heads[i], hr)) {
      out.grounded.push_back(i);
    }
  }
  return out;
}

bool PairBook::Before::operator()(const PendingPair& a, const PendingPair& b) const {
  switch (selection) {
    case Selection::kNormal: {
      int c = ctx->cmp(a.lcm, b.lcm);
      if (c != 0) return c < 0;
      break;
    }
    case Selection::kDegree: {
      if (a.lcm.degree() != b.lcm.degree()) return a.lcm.degree() < b.lcm.degree();
      int c = ctx->cmp(a.lcm, b.lcm);
      if (c != 0) return c < 0;
      break;
    }
    case Selection::kFifo:
      break;
    case Selection::kSugar: {
      if (a.sugar != b.sugar) return a.sugar < b.sugar;
      int c = ctx->cmp(a.lcm, b.lcm);
      if (c != 0) return c < 0;
      break;
    }
  }
  return a.seq < b.seq;
}

PairBook::PairBook(const PolyContext& ctx, const GbConfig& cfg, GbStats* stats)
    : ctx_(ctx), cfg_(cfg), stats_(stats), queue_(Before{&ctx, cfg.selection}) {}

void PairBook::seed(const std::vector<Polynomial>& input) {
  for (const Polynomial& g : input) {
    // Sugar (Giovini et al.): an input's sugar is its total degree.
    std::uint32_t d = 0;
    for (const auto& t : g.terms()) d = std::max(d, t.mono.degree());
    heads_.push_back(g.hmono());
    sugars_.push_back(d);
  }
  const auto n = static_cast<std::uint32_t>(heads_.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      push(i, j);
      stats_->pairs_created += 1;
    }
  }
}

void PairBook::add(const Polynomial& g, std::uint32_t sugar) {
  const auto m = static_cast<std::uint32_t>(heads_.size());
  Monomial head = g.hmono();
  if (!cfg_.gm_update) {
    stats_->pairs_created += m;
    heads_.push_back(std::move(head));
    sugars_.push_back(sugar);
    for (std::uint32_t i = 0; i < m; ++i) push(i, m);
    return;
  }
  GmSplit split = gm_split(ctx_, heads_, head, stats_);
  heads_.push_back(std::move(head));
  sugars_.push_back(sugar);
  for (std::size_t i : split.kept) push(static_cast<std::uint32_t>(i), m);
  for (std::size_t i : split.grounded) treated(static_cast<std::uint32_t>(i), m);
}

void PairBook::push(std::uint32_t i, std::uint32_t j) {
  GBD_DCHECK(i < j);
  PendingPair p;
  p.i = i;
  p.j = j;
  p.lcm = Monomial::lcm(heads_[i], heads_[j]);
  // A pair's sugar is the larger side's sugar + deg(lcm / head).
  std::uint32_t si = sugars_[i] + p.lcm.degree() - heads_[i].degree();
  std::uint32_t sj = sugars_[j] + p.lcm.degree() - heads_[j].degree();
  p.sugar = std::max(si, sj);
  p.seq = next_seq_++;
  queue_.insert(std::move(p));
}

const PendingPair& PairBook::peek() const {
  GBD_CHECK_MSG(!queue_.empty(), "peek on empty pair queue");
  return *queue_.begin();
}

PendingPair PairBook::pop() {
  GBD_CHECK_MSG(!queue_.empty(), "pop on empty pair queue");
  auto node = queue_.extract(queue_.begin());
  return std::move(node.value());
}

bool PairBook::screen(const PendingPair& p) {
  if (cfg_.coprime_criterion && Monomial::coprime(heads_[p.i], heads_[p.j])) {
    stats_->pairs_pruned_coprime += 1;
    treated(p.i, p.j);
    return false;
  }
  if (cfg_.chain_criterion && chain_prunable(p)) {
    stats_->pairs_pruned_chain += 1;
    return false;
  }
  stats_->spolys_computed += 1;
  GBD_CHECK_MSG(stats_->spolys_computed <= cfg_.max_spolys, "exceeded max_spolys");
  return true;
}

bool PairBook::chain_prunable(const PendingPair& p) const {
  for (std::uint32_t k = 0; k < heads_.size(); ++k) {
    if (k == p.i || k == p.j) continue;
    if (heads_[k].divides(p.lcm) && is_treated(p.i, k) && is_treated(p.j, k)) return true;
  }
  return false;
}

}  // namespace gbd
