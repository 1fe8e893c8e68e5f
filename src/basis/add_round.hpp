// The basis protocol's handler ids and the adder's side of an AddToSet round
// (§4.1.2), shared by both basis stores.
//
// An add round is split-phase: the adder stores each member's body locally
// under a fresh id, announces the members to every other processor, and
// waits for one acknowledgement per processor ("acknowledgements are
// necessary for correctness"). AddRound owns everything about that round
// that does not depend on the store: fresh ids, the member list, the ack
// token (the round's first id), the once-per-(round, processor) ack count,
// the list of completed adds and the `add-round` trace span. A store keeps
// only what differs — where a new body lives and what the announcement
// looks like on the wire.
#pragma once

#include <cstdint>
#include <vector>

#include "basis/basis_store.hpp"
#include "machine/machine.hpp"

namespace gbd {

/// Handler-id block 120..127 (see taskq.hpp for the range convention).
/// Every message type is idempotent: announce/store/shadow all dedup, an
/// ack carries its round's token and the adder counts at most one ack per
/// (round, processor), so duplicated or reordered deliveries (chaos mode,
/// or a retrying transport) never corrupt the add protocol.
enum BasisHandlers : HandlerId {
  kBaInvalidate = 120,  ///< new basis element announcement (id + head monomial)
  kBaInvAck = 121,      ///< announcement acknowledgement (carries the round token)
  kBaFetch = 122,       ///< body request, routed up the owner-rooted tree
  kBaBody = 123,        ///< body reply, unwinds the pending-requester chain
  kBaHomeBody = 124,    ///< hybrid store: the owner's push to the other homes
  // Batched wire formats of the replicated store:
  kBaInvBatch = 125,    ///< [count, (id, head)*count]; acked once per round
  kBaFetchBatch = 126,  ///< [count, id*count], grouped by tree parent
  kBaBodyBatch = 127,   ///< [count, (id, body)*count], grouped by requester
};

class AddRound {
 public:
  /// Registers the kBaInvAck handler on `self`. A round admits at most
  /// `max_adds` members.
  AddRound(Proc& self, std::size_t max_adds);
  AddRound(const AddRound&) = delete;  // the ack handler holds `this`
  AddRound& operator=(const AddRound&) = delete;

  std::size_t max_adds() const { return max_adds_; }

  /// Keep fresh ids clear of a preloaded id that shares our owner slot.
  void reserve(PolyId id);

  void open();
  /// A fresh id for the round's next member.
  PolyId push();
  /// Start the ack round; returns its members, for the store to announce.
  const std::vector<PolyId>& close();
  bool done() const { return acks_missing_ == 0; }

  /// Ids whose round completed here (all acks in). Completion proves every
  /// processor has processed the announcement, so a coherence checker may
  /// assert each of these ids is known machine-wide.
  const std::vector<PolyId>& completed() const { return completed_; }

  /// A victim's acknowledgement of an announcement from `adder`; `token` is
  /// the first id of the announced round.
  static void ack(Proc& self, int adder, PolyId token);

 private:
  void on_ack(int src, Reader& r);
  void complete();

  Proc& self_;
  std::size_t max_adds_;
  std::uint32_t next_seq_ = 0;
  bool open_ = false;
  std::vector<PolyId> ids_;     ///< members of the open or in-flight round
  int acks_missing_ = 0;
  std::vector<bool> ack_seen_;  ///< per processor, for the in-flight round
  std::vector<PolyId> completed_;
};

}  // namespace gbd
