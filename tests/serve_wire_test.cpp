// Wire tests for the serve job protocol: encode/decode round trips, and
// SafeReader's guarantee that truncated or mutated payloads are diagnosed
// decode failures — never aborts (the daemon decodes hostile client bytes).
#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace gbd {
namespace {

SubmitRequest sample_submit() {
  SubmitRequest req;
  req.token = 0x1122334455667788ULL;
  req.priority = 7;
  req.deadline_ms = 1500;
  req.subscribe = true;
  req.want_cert = true;
  req.source = 1;
  req.problem = "katsura(5)";
  req.zp_prime = 32003;
  return req;
}

JobResultMsg sample_result() {
  JobResultMsg m;
  m.token = 9;
  m.job_id = 1234;
  m.status = JobState::kDone;
  m.cache_hit = true;
  m.cert = 1;
  m.queue_wait_ms = 11;
  m.exec_ms = 22;
  m.spolys = 39;
  m.basis_added = 12;
  m.basis = {"x^2 - y", "x*y - 1", "y^3 - x"};
  return m;
}

TEST(ServeWireTest, SubmitRoundTrip) {
  SubmitRequest req = sample_submit();
  Writer w;
  req.encode(w);
  SafeReader r(w.data());
  SubmitRequest out;
  ASSERT_TRUE(SubmitRequest::decode(r, &out));
  EXPECT_EQ(out.token, req.token);
  EXPECT_EQ(out.priority, req.priority);
  EXPECT_EQ(out.deadline_ms, req.deadline_ms);
  EXPECT_EQ(out.subscribe, req.subscribe);
  EXPECT_EQ(out.want_cert, req.want_cert);
  EXPECT_EQ(out.source, req.source);
  EXPECT_EQ(out.problem, req.problem);
  EXPECT_EQ(out.zp_prime, req.zp_prime);
}

TEST(ServeWireTest, EventRoundTrip) {
  JobEventMsg e;
  e.token = 3;
  e.job_id = 17;
  e.state = JobState::kRunning;
  e.queue_depth = 12;
  e.note = "worker 1";
  Writer w;
  e.encode(w);
  SafeReader r(w.data());
  JobEventMsg out;
  ASSERT_TRUE(JobEventMsg::decode(r, &out));
  EXPECT_EQ(out.token, e.token);
  EXPECT_EQ(out.job_id, e.job_id);
  EXPECT_EQ(out.state, JobState::kRunning);
  EXPECT_EQ(out.queue_depth, 12u);
  EXPECT_EQ(out.note, "worker 1");
}

TEST(ServeWireTest, ResultRoundTrip) {
  JobResultMsg m = sample_result();
  Writer w;
  m.encode(w);
  SafeReader r(w.data());
  JobResultMsg out;
  ASSERT_TRUE(JobResultMsg::decode(r, &out));
  EXPECT_EQ(out.token, m.token);
  EXPECT_EQ(out.status, JobState::kDone);
  EXPECT_TRUE(out.cache_hit);
  EXPECT_EQ(out.cert, 1);
  EXPECT_EQ(out.basis, m.basis);
}

TEST(ServeWireTest, StatsRoundTrip) {
  ServerStatsMsg s;
  s.submitted = 1000;
  s.done = 990;
  s.cache_hits = 500;
  s.wait_p99_ms = 250;
  s.exec_p50_ms = 12;
  s.workers = 8;
  s.paused = true;
  Writer w;
  s.encode(w);
  SafeReader r(w.data());
  ServerStatsMsg out;
  ASSERT_TRUE(ServerStatsMsg::decode(r, &out));
  EXPECT_EQ(out.submitted, 1000u);
  EXPECT_EQ(out.done, 990u);
  EXPECT_EQ(out.cache_hits, 500u);
  EXPECT_EQ(out.wait_p99_ms, 250u);
  EXPECT_EQ(out.workers, 8u);
  EXPECT_TRUE(out.paused);
}

TEST(ServeWireTest, EveryTruncationFailsCleanly) {
  Writer w;
  sample_submit().encode(w);
  const auto& bytes = w.data();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    SafeReader r(bytes.data(), n);
    SubmitRequest out;
    EXPECT_FALSE(SubmitRequest::decode(r, &out)) << "accepted a " << n << "-byte truncation";
  }
  Writer w2;
  sample_result().encode(w2);
  const auto& bytes2 = w2.data();
  for (std::size_t n = 0; n < bytes2.size(); ++n) {
    SafeReader r(bytes2.data(), n);
    JobResultMsg out;
    EXPECT_FALSE(JobResultMsg::decode(r, &out));
  }
}

TEST(ServeWireTest, TrailingBytesAreRejected) {
  Writer w;
  sample_submit().encode(w);
  std::vector<std::uint8_t> bytes = w.data();
  bytes.push_back(0);
  SafeReader r(bytes.data(), bytes.size());
  SubmitRequest out;
  EXPECT_FALSE(SubmitRequest::decode(r, &out));
}

TEST(ServeWireTest, MutatedPayloadsNeverCrash) {
  Writer w;
  sample_result().encode(w);
  Rng rng(5150);
  for (int round = 0; round < 5000; ++round) {
    std::vector<std::uint8_t> bytes = w.data();
    int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f)
      bytes[rng.below(bytes.size())] = static_cast<std::uint8_t>(rng.next());
    SafeReader r(bytes.data(), bytes.size());
    JobResultMsg out;
    (void)JobResultMsg::decode(r, &out);  // accept or reject; must not abort
  }
}

TEST(ServeWireTest, StateBytesOutsideJobStateAreRejected) {
  // The state byte follows the token and job id in both messages. Only the
  // JobState values decode; the retired value 2 and everything past
  // kRejected do not, and a result also needs a terminal state.
  auto is_state = [](int b) { return b <= 7 && b != 2; };
  auto is_terminal = [](int b) { return b >= 3 && b <= 7; };
  constexpr std::size_t kStateOffset = 16;

  JobEventMsg e;
  e.token = 3;
  e.job_id = 17;
  e.state = JobState::kRunning;
  Writer we;
  e.encode(we);
  Writer wr;
  sample_result().encode(wr);
  for (int b = 0; b < 256; ++b) {
    std::vector<std::uint8_t> ev = we.data();
    ev[kStateOffset] = static_cast<std::uint8_t>(b);
    SafeReader re(ev.data(), ev.size());
    JobEventMsg eout;
    EXPECT_EQ(JobEventMsg::decode(re, &eout), is_state(b)) << "event state byte " << b;

    std::vector<std::uint8_t> rv = wr.data();
    rv[kStateOffset] = static_cast<std::uint8_t>(b);
    SafeReader rr(rv.data(), rv.size());
    JobResultMsg rout;
    EXPECT_EQ(JobResultMsg::decode(rr, &rout), is_terminal(b)) << "result state byte " << b;
  }
}

TEST(ServeWireTest, StateNamesAndTerminality) {
  EXPECT_STREQ(job_state_name(JobState::kQueued), "queued");
  EXPECT_STREQ(job_state_name(JobState::kTimedOut), "timed-out");
  EXPECT_FALSE(job_state_terminal(JobState::kQueued));
  EXPECT_FALSE(job_state_terminal(JobState::kRunning));
  EXPECT_TRUE(job_state_terminal(JobState::kDone));
  EXPECT_TRUE(job_state_terminal(JobState::kRejected));
}

}  // namespace
}  // namespace gbd
