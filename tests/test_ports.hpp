// Loopback TCP port blocks for the multi-process socket tests.
//
// Tests that fork one process per rank need a contiguous run of ports
// (base + rank), and `ctest -j` runs several such test processes at once.
// Deriving the base from the pid lets processes with nearby pids get
// overlapping runs, so instead every block is claimed with an exclusive
// fcntl byte-range lock — byte k of one shared lock file stands for block k.
// The kernel holds the lock for the claiming process until it exits (even
// by a crash), so no two live processes can ever be handed the same block,
// and nothing needs cleaning up. Forked children do not inherit the lock;
// they run inside the parent's lifetime, which is what keeps it held.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

namespace gbd {
namespace test {

/// Ports per block: room for one run of up to 64 ranks, or for a sequence
/// of back-to-back socket jobs that each advance the base by their rank
/// count (the multi-modular driver does this).
constexpr int kPortBlockSize = 64;
/// Blocks tile [kFirstPort, kEndPort), below Linux's default ephemeral range
/// (32768+), so the outgoing connections of other tests cannot occupy them.
constexpr int kFirstPort = 12000;
constexpr int kEndPort = 32000;
constexpr int kPortBlocks = (kEndPort - kFirstPort) / kPortBlockSize;

/// First port of a block of kPortBlockSize loopback ports that no other
/// live process has been handed. Each call claims a fresh block; aborts if
/// every block is taken.
inline int reserve_port_block() {
  static int fd = -1;
  static int next = -1;
  static int claimed = 0;  // a process's own locks never conflict with it
  if (claimed == kPortBlocks) {
    std::fprintf(stderr, "reserve_port_block: this process claimed every block\n");
    std::abort();
  }
  if (fd < 0) {
    fd = ::open("/tmp/gbd_test_ports.lock", O_RDWR | O_CREAT | O_CLOEXEC, 0666);
    if (fd < 0) {
      std::perror("reserve_port_block: open lock file");
      std::abort();
    }
    // Start the scan at a pid-dependent block so concurrent processes
    // rarely contend for the same lock.
    next = static_cast<int>(::getpid() % kPortBlocks);
  }
  for (int tried = 0; tried < kPortBlocks; ++tried) {
    const int block = next;
    next = (next + 1) % kPortBlocks;
    struct flock lk {};
    lk.l_type = F_WRLCK;
    lk.l_whence = SEEK_SET;
    lk.l_start = block;
    lk.l_len = 1;
    if (::fcntl(fd, F_SETLK, &lk) == 0) {
      ++claimed;
      return kFirstPort + block * kPortBlockSize;
    }
  }
  std::fprintf(stderr, "reserve_port_block: all %d port blocks are taken\n", kPortBlocks);
  std::abort();
}

}  // namespace test
}  // namespace gbd
