#include "polaris/coll/algorithms.hpp"

#include <algorithm>

#include "polaris/support/check.hpp"

namespace polaris::coll {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kLinear:
      return "linear";
    case Algorithm::kBinomial:
      return "binomial";
    case Algorithm::kRecursiveDoubling:
      return "recursive-doubling";
    case Algorithm::kRing:
      return "ring";
    case Algorithm::kRabenseifner:
      return "rabenseifner";
    case Algorithm::kPairwise:
      return "pairwise";
    case Algorithm::kDissemination:
      return "dissemination";
    case Algorithm::kBruck:
      return "bruck";
    case Algorithm::kRecursiveHalving:
      return "recursive-halving";
  }
  return "?";
}

const char* to_string(Collective c) {
  switch (c) {
    case Collective::kBarrier:
      return "barrier";
    case Collective::kBroadcast:
      return "broadcast";
    case Collective::kReduce:
      return "reduce";
    case Collective::kAllreduce:
      return "allreduce";
    case Collective::kAllgather:
      return "allgather";
    case Collective::kAlltoall:
      return "alltoall";
    case Collective::kGather:
      return "gather";
    case Collective::kScatter:
      return "scatter";
    case Collective::kReduceScatter:
      return "reduce-scatter";
    case Collective::kScan:
      return "scan";
  }
  return "?";
}

std::pair<std::size_t, std::size_t> chunk_range(std::size_t count,
                                                std::size_t parts,
                                                std::size_t index) {
  POLARIS_CHECK(parts > 0 && index < parts);
  const std::size_t base = count / parts;
  const std::size_t rem = count % parts;
  const std::size_t len = base + (index < rem ? 1 : 0);
  const std::size_t off = index * base + std::min(index, rem);
  return {off, len};
}

namespace {

Schedule make_empty(const char* coll, Algorithm a, std::size_t ranks,
                    std::size_t total_count) {
  POLARIS_CHECK(ranks >= 1);
  Schedule s;
  s.name = std::string(coll) + "/" + to_string(a);
  s.ranks = ranks;
  s.total_count = total_count;
  s.per_rank.resize(ranks);
  return s;
}

int wrap(int x, int p) { return ((x % p) + p) % p; }

}  // namespace

// ------------------------------------------------------------------- barrier

Schedule barrier(std::size_t ranks, Algorithm a) {
  const int p = static_cast<int>(ranks);
  switch (a) {
    case Algorithm::kDissemination: {
      auto s = make_empty("barrier", a, ranks, 0);
      for (int r = 0; r < p; ++r) {
        for (int k = 1; k < p; k <<= 1) {
          s.per_rank[r].push_back(CommStep::sendrecv(
              wrap(r + k, p), 0, 0, wrap(r - k, p), 0, 0));
        }
      }
      return s;
    }
    case Algorithm::kLinear: {
      // Fan-in to rank 0, then fan-out.
      auto s = make_empty("barrier", a, ranks, 0);
      for (int r = 1; r < p; ++r) {
        s.per_rank[r].push_back(CommStep::send(0, 0, 0));
        s.per_rank[0].push_back(CommStep::recv(r, 0, 0));
      }
      for (int r = 1; r < p; ++r) {
        s.per_rank[0].push_back(CommStep::send(r, 0, 0));
        s.per_rank[r].push_back(CommStep::recv(0, 0, 0));
      }
      return s;
    }
    default:
      support::check_failed("unsupported barrier algorithm",
                            to_string(a));
  }
}

// ----------------------------------------------------------------- broadcast

Schedule broadcast(std::size_t ranks, std::size_t count, int root,
                   Algorithm a) {
  const int p = static_cast<int>(ranks);
  POLARIS_CHECK(root >= 0 && root < p);
  switch (a) {
    case Algorithm::kLinear: {
      auto s = make_empty("broadcast", a, ranks, count);
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        s.per_rank[root].push_back(CommStep::send(r, 0, count));
        s.per_rank[r].push_back(CommStep::recv(root, 0, count));
      }
      return s;
    }
    case Algorithm::kBinomial: {
      auto s = make_empty("broadcast", a, ranks, count);
      for (int r = 0; r < p; ++r) {
        const int rel = wrap(r - root, p);
        int mask = 1;
        // Receive from the parent (the rank that differs at the lowest set
        // bit of rel).
        while (mask < p) {
          if (rel & mask) {
            const int parent = wrap(rel - mask + root, p);
            s.per_rank[r].push_back(CommStep::recv(parent, 0, count));
            break;
          }
          mask <<= 1;
        }
        // Send to children, largest subtree first.
        mask >>= 1;
        while (mask > 0) {
          if (rel + mask < p) {
            const int child = wrap(rel + mask + root, p);
            s.per_rank[r].push_back(CommStep::send(child, 0, count));
          }
          mask >>= 1;
        }
      }
      return s;
    }
    case Algorithm::kRing: {
      // Segmented pipeline down the chain root -> root+1 -> ... (large
      // messages): hides (p-2) of the p-1 traversals.
      auto s = make_empty("broadcast", a, ranks, count);
      const std::size_t segments =
          std::clamp<std::size_t>(count / 1024, 1, 32);
      for (int r = 0; r < p; ++r) {
        const int pos = wrap(r - root, p);
        const int next = wrap(r + 1, p);
        const int prev = wrap(r - 1, p);
        for (std::size_t seg = 0; seg <= segments; ++seg) {
          CommStep step;
          if (seg > 0 && pos < p - 1) {  // forward the previous segment
            const auto [off, len] = chunk_range(count, segments, seg - 1);
            step.send_peer = next;
            step.send_offset = off;
            step.send_count = len;
          }
          if (seg < segments && pos > 0) {  // receive the next segment
            const auto [off, len] = chunk_range(count, segments, seg);
            step.recv_peer = prev;
            step.recv_offset = off;
            step.recv_count = len;
          }
          if (step.has_send() || step.has_recv()) {
            s.per_rank[r].push_back(step);
          }
        }
      }
      return s;
    }
    default:
      support::check_failed("unsupported broadcast algorithm",
                            to_string(a));
  }
}

// -------------------------------------------------------------------- reduce

Schedule reduce(std::size_t ranks, std::size_t count, int root, Algorithm a) {
  const int p = static_cast<int>(ranks);
  POLARIS_CHECK(root >= 0 && root < p);
  switch (a) {
    case Algorithm::kLinear: {
      auto s = make_empty("reduce", a, ranks, count);
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        s.per_rank[r].push_back(CommStep::send(root, 0, count));
        s.per_rank[root].push_back(
            CommStep::recv(r, 0, count, /*reduce=*/true));
      }
      return s;
    }
    case Algorithm::kBinomial: {
      // Mirror image of the binomial broadcast: children reduce into
      // parents, smallest subtree first.
      auto s = make_empty("reduce", a, ranks, count);
      for (int r = 0; r < p; ++r) {
        const int rel = wrap(r - root, p);
        int mask = 1;
        while (mask < p) {
          if ((rel & mask) == 0) {
            if (rel + mask < p) {
              const int child = wrap(rel + mask + root, p);
              s.per_rank[r].push_back(
                  CommStep::recv(child, 0, count, /*reduce=*/true));
            }
          } else {
            const int parent = wrap(rel - mask + root, p);
            s.per_rank[r].push_back(CommStep::send(parent, 0, count));
            break;
          }
          mask <<= 1;
        }
      }
      return s;
    }
    default:
      support::check_failed("unsupported reduce algorithm", to_string(a));
  }
}

// ----------------------------------------------------------------- allreduce

namespace {

Schedule allreduce_recursive_doubling(std::size_t ranks, std::size_t count) {
  POLARIS_CHECK_MSG(is_power_of_two(ranks),
                    "recursive doubling requires power-of-two ranks");
  auto s = make_empty("allreduce", Algorithm::kRecursiveDoubling, ranks,
                      count);
  const int p = static_cast<int>(ranks);
  for (int r = 0; r < p; ++r) {
    for (int mask = 1; mask < p; mask <<= 1) {
      const int partner = r ^ mask;
      s.per_rank[r].push_back(CommStep::sendrecv(
          partner, 0, count, partner, 0, count, /*reduce=*/true));
    }
  }
  return s;
}

Schedule allreduce_ring(std::size_t ranks, std::size_t count) {
  auto s = make_empty("allreduce", Algorithm::kRing, ranks, count);
  const int p = static_cast<int>(ranks);
  if (p == 1) return s;
  for (int r = 0; r < p; ++r) {
    const int right = wrap(r + 1, p);
    const int left = wrap(r - 1, p);
    // Reduce-scatter phase: after it, rank r owns reduced chunk (r+1)%p.
    for (int step = 0; step < p - 1; ++step) {
      const auto [soff, scnt] =
          chunk_range(count, ranks, static_cast<std::size_t>(wrap(r - step, p)));
      const auto [roff, rcnt] = chunk_range(
          count, ranks, static_cast<std::size_t>(wrap(r - step - 1, p)));
      s.per_rank[r].push_back(CommStep::sendrecv(
          right, soff, scnt, left, roff, rcnt, /*reduce=*/true));
    }
    // Allgather phase.
    for (int step = 0; step < p - 1; ++step) {
      const auto [soff, scnt] = chunk_range(
          count, ranks, static_cast<std::size_t>(wrap(r + 1 - step, p)));
      const auto [roff, rcnt] = chunk_range(
          count, ranks, static_cast<std::size_t>(wrap(r - step, p)));
      s.per_rank[r].push_back(CommStep::sendrecv(
          right, soff, scnt, left, roff, rcnt, /*reduce=*/false));
    }
  }
  return s;
}

Schedule allreduce_rabenseifner(std::size_t ranks, std::size_t count) {
  POLARIS_CHECK_MSG(is_power_of_two(ranks),
                    "rabenseifner requires power-of-two ranks");
  auto s = make_empty("allreduce", Algorithm::kRabenseifner, ranks, count);
  const int p = static_cast<int>(ranks);
  if (p == 1) return s;

  // Track each rank's owned segment [lo, hi) through both phases.
  std::vector<std::size_t> lo(ranks, 0), hi(ranks, count);

  // Reduce-scatter by recursive halving.
  for (int mask = p / 2; mask >= 1; mask >>= 1) {
    for (int r = 0; r < p; ++r) {
      const int partner = r ^ mask;
      const std::size_t mid = lo[r] + (hi[r] - lo[r]) / 2;
      if ((r & mask) == 0) {
        // Keep the lower half; send the upper half.
        s.per_rank[r].push_back(CommStep::sendrecv(
            partner, mid, hi[r] - mid, partner, lo[r], mid - lo[r],
            /*reduce=*/true));
      } else {
        s.per_rank[r].push_back(CommStep::sendrecv(
            partner, lo[r], mid - lo[r], partner, mid, hi[r] - mid,
            /*reduce=*/true));
      }
    }
    for (int r = 0; r < p; ++r) {
      const std::size_t mid = lo[r] + (hi[r] - lo[r]) / 2;
      if ((r & mask) == 0) {
        hi[r] = mid;
      } else {
        lo[r] = mid;
      }
    }
  }

  // Allgather by recursive doubling (reverse pairing order).
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int r = 0; r < p; ++r) {
      const int partner = r ^ mask;
      s.per_rank[r].push_back(CommStep::sendrecv(
          partner, lo[r], hi[r] - lo[r], partner, lo[partner],
          hi[partner] - lo[partner], /*reduce=*/false));
    }
    for (int r = 0; r < p; ++r) {
      // The two segments are adjacent, so a partner merged earlier in this
      // loop already holds their union and min/max still yields it.
      const int partner = r ^ mask;
      lo[r] = std::min(lo[r], lo[partner]);
      hi[r] = std::max(hi[r], hi[partner]);
    }
  }
  return s;
}

Schedule allreduce_binomial(std::size_t ranks, std::size_t count) {
  // reduce to 0 then broadcast from 0, concatenated per rank.
  auto red = reduce(ranks, count, 0, Algorithm::kBinomial);
  auto bc = broadcast(ranks, count, 0, Algorithm::kBinomial);
  auto s = make_empty("allreduce", Algorithm::kBinomial, ranks, count);
  for (std::size_t r = 0; r < ranks; ++r) {
    s.per_rank[r] = red.per_rank[r];
    s.per_rank[r].insert(s.per_rank[r].end(), bc.per_rank[r].begin(),
                         bc.per_rank[r].end());
  }
  return s;
}

}  // namespace

Schedule allreduce(std::size_t ranks, std::size_t count, Algorithm a) {
  switch (a) {
    case Algorithm::kRecursiveDoubling:
      return allreduce_recursive_doubling(ranks, count);
    case Algorithm::kRing:
      return allreduce_ring(ranks, count);
    case Algorithm::kRabenseifner:
      return allreduce_rabenseifner(ranks, count);
    case Algorithm::kBinomial:
      return allreduce_binomial(ranks, count);
    default:
      support::check_failed("unsupported allreduce algorithm",
                            to_string(a));
  }
}

// ----------------------------------------------------------------- allgather

Schedule allgather(std::size_t ranks, std::size_t block, Algorithm a) {
  const int p = static_cast<int>(ranks);
  const std::size_t total = ranks * block;
  switch (a) {
    case Algorithm::kRing: {
      auto s = make_empty("allgather", a, ranks, total);
      for (int r = 0; r < p; ++r) {
        const int right = wrap(r + 1, p);
        const int left = wrap(r - 1, p);
        for (int step = 0; step < p - 1; ++step) {
          const auto sblk = static_cast<std::size_t>(wrap(r - step, p));
          const auto rblk = static_cast<std::size_t>(wrap(r - step - 1, p));
          s.per_rank[r].push_back(CommStep::sendrecv(
              right, sblk * block, block, left, rblk * block, block));
        }
      }
      return s;
    }
    case Algorithm::kRecursiveDoubling: {
      POLARIS_CHECK_MSG(is_power_of_two(ranks),
                        "recursive doubling requires power-of-two ranks");
      auto s = make_empty("allgather", a, ranks, total);
      for (int r = 0; r < p; ++r) {
        for (int mask = 1; mask < p; mask <<= 1) {
          const int partner = r ^ mask;
          // Own group's block range doubles each round.
          const std::size_t my_base =
              static_cast<std::size_t>(r & ~(mask - 1)) * block;
          const std::size_t partner_base =
              static_cast<std::size_t>(partner & ~(mask - 1)) * block;
          const std::size_t len = static_cast<std::size_t>(mask) * block;
          s.per_rank[r].push_back(CommStep::sendrecv(
              partner, my_base, len, partner, partner_base, len));
        }
      }
      return s;
    }

    case Algorithm::kBruck: {
      // Bruck dissemination allgather in ceil(log2 p) rounds for any p.
      // Blocks are stored at their FINAL offsets throughout: rank r's
      // "rotated slot" j is actual block (r+j) mod p, so the blocks a
      // round moves land directly in place and no terminal rotation is
      // needed.  A round's block run may wrap past block p-1 in actual
      // offsets; the run is split at the wrap points of the SENDER's
      // blocks, and the receiver derives the identical split from its
      // source's indices, so per-pair FIFO sequences match.
      auto s = make_empty("allgather", a, ranks, total);
      const auto up = static_cast<std::size_t>(p);
      // Wrap points of the run {(base+j) mod p : j in [0, m)}.
      const auto segment_cuts = [up](std::size_t base, std::size_t m) {
        std::vector<std::size_t> cuts{0, m};
        const std::size_t j_wrap = (up - base % up) % up;
        if (j_wrap > 0 && j_wrap < m) cuts.push_back(j_wrap);
        std::sort(cuts.begin(), cuts.end());
        return cuts;
      };
      for (int r = 0; r < p; ++r) {
        for (std::size_t dist = 1; dist < up; dist <<= 1) {
          const std::size_t m = std::min(dist, up - dist);
          const int to = wrap(r - static_cast<int>(dist), p);
          const int from = wrap(r + static_cast<int>(dist), p);
          // Send: my blocks {(r+j)}, split at my own wrap.
          const auto scuts =
              segment_cuts(static_cast<std::size_t>(r), m);
          // Recv: blocks {(from+j)} = {(r+dist+j)}, split at the SOURCE's
          // wrap so segment sizes equal the source's send segments.
          const auto rcuts = segment_cuts(
              static_cast<std::size_t>(r) + dist, m);
          const std::size_t nsteps =
              std::max(scuts.size(), rcuts.size()) - 1;
          for (std::size_t ci = 0; ci < nsteps; ++ci) {
            CommStep step;
            if (ci + 1 < scuts.size()) {
              const std::size_t j0 = scuts[ci];
              step.send_peer = to;
              step.send_offset =
                  ((static_cast<std::size_t>(r) + j0) % up) * block;
              step.send_count = (scuts[ci + 1] - j0) * block;
            }
            if (ci + 1 < rcuts.size()) {
              const std::size_t j0 = rcuts[ci];
              step.recv_peer = from;
              step.recv_offset =
                  ((static_cast<std::size_t>(r) + dist + j0) % up) * block;
              step.recv_count = (rcuts[ci + 1] - j0) * block;
            }
            if (step.has_send() || step.has_recv()) {
              s.per_rank[r].push_back(step);
            }
          }
        }
      }
      return s;
    }
    case Algorithm::kPairwise: {
      auto s = make_empty("allgather", a, ranks, total);
      for (int r = 0; r < p; ++r) {
        for (int step = 1; step < p; ++step) {
          const int to = wrap(r + step, p);
          const int from = wrap(r - step, p);
          s.per_rank[r].push_back(CommStep::sendrecv(
              to, static_cast<std::size_t>(r) * block, block, from,
              static_cast<std::size_t>(from) * block, block));
        }
      }
      return s;
    }
    default:
      support::check_failed("unsupported allgather algorithm",
                            to_string(a));
  }
}

// ------------------------------------------------------------------ alltoall

Schedule alltoall(std::size_t ranks, std::size_t block, Algorithm a) {
  POLARIS_CHECK_MSG(a == Algorithm::kPairwise,
                    "alltoall implements pairwise exchange only");
  const int p = static_cast<int>(ranks);
  const std::size_t total = ranks * block;
  auto s = make_empty("alltoall", a, ranks, total);
  s.needs_local_copy = true;
  for (int r = 0; r < p; ++r) {
    for (int step = 1; step < p; ++step) {
      const int to = wrap(r + step, p);
      const int from = wrap(r - step, p);
      CommStep cs = CommStep::sendrecv(
          to, static_cast<std::size_t>(to) * block, block, from,
          static_cast<std::size_t>(from) * block, block);
      cs.send_from_input = true;
      s.per_rank[r].push_back(cs);
    }
  }
  return s;
}


// ------------------------------------------------------------ reduce_scatter

Schedule reduce_scatter(std::size_t ranks, std::size_t block, Algorithm a) {
  const int p = static_cast<int>(ranks);
  const std::size_t total = ranks * block;
  switch (a) {
    case Algorithm::kRing: {
      // p-1 neighbour steps; rank r ends owning reduced block r.
      auto s = make_empty("reduce-scatter", a, ranks, total);
      for (int r = 0; r < p; ++r) {
        const int right = wrap(r + 1, p);
        const int left = wrap(r - 1, p);
        for (int step = 0; step < p - 1; ++step) {
          const auto sblk = static_cast<std::size_t>(wrap(r - step - 1, p));
          const auto rblk = static_cast<std::size_t>(wrap(r - step - 2, p));
          s.per_rank[r].push_back(CommStep::sendrecv(
              right, sblk * block, block, left, rblk * block, block,
              /*reduce=*/true));
        }
      }
      return s;
    }
    case Algorithm::kRecursiveHalving: {
      POLARIS_CHECK_MSG(is_power_of_two(ranks),
                        "recursive halving requires power-of-two ranks");
      auto s = make_empty("reduce-scatter", a, ranks, total);
      // Track each rank's live block range [lo, hi); the halves kept
      // follow the rank's own bits so rank r converges on block r.
      std::vector<std::size_t> lo(ranks, 0), hi(ranks, ranks);
      for (int mask = p / 2; mask >= 1; mask >>= 1) {
        for (int r = 0; r < p; ++r) {
          const int partner = r ^ mask;
          const std::size_t mid = lo[r] + (hi[r] - lo[r]) / 2;
          const bool keep_low = (r & mask) == 0;
          const std::size_t koff = (keep_low ? lo[r] : mid) * block;
          const std::size_t kcnt =
              (keep_low ? mid - lo[r] : hi[r] - mid) * block;
          const std::size_t soff = (keep_low ? mid : lo[r]) * block;
          const std::size_t scnt =
              (keep_low ? hi[r] - mid : mid - lo[r]) * block;
          s.per_rank[r].push_back(CommStep::sendrecv(
              partner, soff, scnt, partner, koff, kcnt, /*reduce=*/true));
        }
        for (int r = 0; r < p; ++r) {
          const std::size_t mid = lo[r] + (hi[r] - lo[r]) / 2;
          if ((r & mask) == 0) {
            hi[r] = mid;
          } else {
            lo[r] = mid;
          }
        }
      }
      return s;
    }
    case Algorithm::kBinomial: {
      // Compose: binomial reduce to 0, then binomial scatter from 0.
      auto red = reduce(ranks, total, 0, Algorithm::kBinomial);
      auto sc = scatter(ranks, block, 0, Algorithm::kBinomial);
      auto s = make_empty("reduce-scatter", a, ranks, total);
      for (std::size_t r = 0; r < ranks; ++r) {
        s.per_rank[r] = red.per_rank[r];
        s.per_rank[r].insert(s.per_rank[r].end(), sc.per_rank[r].begin(),
                             sc.per_rank[r].end());
      }
      return s;
    }
    default:
      support::check_failed("unsupported reduce-scatter algorithm",
                            to_string(a));
  }
}

// ------------------------------------------------------------------------ scan

Schedule scan(std::size_t ranks, std::size_t count) {
  // Hillis-Steele inclusive prefix: ceil(log2 p) rounds; at distance d,
  // rank r sends its running partial to r+d and folds in r-d's.
  const int p = static_cast<int>(ranks);
  auto s = make_empty("scan", Algorithm::kRecursiveDoubling, ranks, count);
  for (int r = 0; r < p; ++r) {
    for (int d = 1; d < p; d <<= 1) {
      CommStep step;
      if (r + d < p) {
        step.send_peer = r + d;
        step.send_offset = 0;
        step.send_count = count;
      }
      if (r - d >= 0) {
        step.recv_peer = r - d;
        step.recv_offset = 0;
        step.recv_count = count;
        step.recv_reduce = true;
      }
      if (step.has_send() || step.has_recv()) s.per_rank[r].push_back(step);
    }
  }
  return s;
}

// -------------------------------------------------------------- gather/scatter


Schedule gather(std::size_t ranks, std::size_t block, int root, Algorithm a) {
  const int p = static_cast<int>(ranks);
  POLARIS_CHECK(root >= 0 && root < p);
  const std::size_t total = ranks * block;
  switch (a) {
    case Algorithm::kLinear: {
      auto s = make_empty("gather", a, ranks, total);
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        s.per_rank[r].push_back(
            CommStep::send(root, static_cast<std::size_t>(r) * block, block));
        s.per_rank[root].push_back(
            CommStep::recv(r, static_cast<std::size_t>(r) * block, block));
      }
      return s;
    }
    case Algorithm::kBinomial: {
      POLARIS_CHECK_MSG(root == 0, "binomial gather requires root 0");
      auto s = make_empty("gather", a, ranks, total);
      // Rank r accumulates blocks [r, r + subtree) before forwarding.
      for (int r = 0; r < p; ++r) {
        int mask = 1;
        while (mask < p) {
          if ((r & mask) == 0) {
            if (r + mask < p) {
              const int child = r + mask;
              const int sub = std::min(mask, p - child);
              s.per_rank[r].push_back(CommStep::recv(
                  child, static_cast<std::size_t>(child) * block,
                  static_cast<std::size_t>(sub) * block));
            }
          } else {
            const int parent = r - mask;
            const int sub = std::min(mask, p - r);
            s.per_rank[r].push_back(CommStep::send(
                parent, static_cast<std::size_t>(r) * block,
                static_cast<std::size_t>(sub) * block));
            break;
          }
          mask <<= 1;
        }
      }
      return s;
    }
    default:
      support::check_failed("unsupported gather algorithm", to_string(a));
  }
}

Schedule scatter(std::size_t ranks, std::size_t block, int root,
                 Algorithm a) {
  const int p = static_cast<int>(ranks);
  POLARIS_CHECK(root >= 0 && root < p);
  const std::size_t total = ranks * block;
  switch (a) {
    case Algorithm::kLinear: {
      auto s = make_empty("scatter", a, ranks, total);
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        s.per_rank[root].push_back(
            CommStep::send(r, static_cast<std::size_t>(r) * block, block));
        s.per_rank[r].push_back(
            CommStep::recv(root, static_cast<std::size_t>(r) * block, block));
      }
      return s;
    }
    case Algorithm::kBinomial: {
      POLARIS_CHECK_MSG(root == 0, "binomial scatter requires root 0");
      auto s = make_empty("scatter", a, ranks, total);
      // Mirror of binomial gather: parents forward subtree ranges,
      // largest subtree first.
      for (int r = 0; r < p; ++r) {
        int recv_mask = 0;
        int mask = 1;
        while (mask < p) {
          if (r & mask) {
            recv_mask = mask;
            const int parent = r - mask;
            const int sub = std::min(mask, p - r);
            s.per_rank[r].push_back(CommStep::recv(
                parent, static_cast<std::size_t>(r) * block,
                static_cast<std::size_t>(sub) * block));
            break;
          }
          mask <<= 1;
        }
        // Children, largest first (mirrors gather's reversed order).
        int send_mask = recv_mask == 0 ? 0 : recv_mask >> 1;
        if (r == 0) {
          send_mask = 1;
          while (send_mask < p) send_mask <<= 1;
          send_mask >>= 1;
        }
        for (int m = send_mask; m >= 1; m >>= 1) {
          if ((r & m) == 0 && r + m < p && (recv_mask == 0 || m < recv_mask)) {
            const int child = r + m;
            const int sub = std::min(m, p - child);
            s.per_rank[r].push_back(CommStep::send(
                child, static_cast<std::size_t>(child) * block,
                static_cast<std::size_t>(sub) * block));
          }
        }
      }
      return s;
    }
    default:
      support::check_failed("unsupported scatter algorithm", to_string(a));
  }
}

// ----------------------------------------------------------------- selection

std::vector<Algorithm> algorithms_for(Collective kind, std::size_t ranks) {
  const bool p2 = is_power_of_two(ranks);
  switch (kind) {
    case Collective::kBarrier:
      return {Algorithm::kDissemination, Algorithm::kLinear};
    case Collective::kBroadcast:
      return {Algorithm::kLinear, Algorithm::kBinomial, Algorithm::kRing};
    case Collective::kReduce:
      return {Algorithm::kLinear, Algorithm::kBinomial};
    case Collective::kAllreduce: {
      std::vector<Algorithm> v{Algorithm::kBinomial, Algorithm::kRing};
      if (p2) {
        v.push_back(Algorithm::kRecursiveDoubling);
        v.push_back(Algorithm::kRabenseifner);
      }
      return v;
    }
    case Collective::kAllgather: {
      std::vector<Algorithm> v{Algorithm::kRing, Algorithm::kPairwise,
                               Algorithm::kBruck};
      if (p2) v.push_back(Algorithm::kRecursiveDoubling);
      return v;
    }
    case Collective::kAlltoall:
      return {Algorithm::kPairwise};
    case Collective::kGather:
    case Collective::kScatter: {
      std::vector<Algorithm> v{Algorithm::kLinear};
      v.push_back(Algorithm::kBinomial);  // root-0 only; callers check
      return v;
    }
    case Collective::kReduceScatter: {
      std::vector<Algorithm> v{Algorithm::kRing, Algorithm::kBinomial};
      if (p2) v.push_back(Algorithm::kRecursiveHalving);
      return v;
    }
    case Collective::kScan:
      return {Algorithm::kRecursiveDoubling};
  }
  return {};
}

Schedule make_schedule(Collective kind, Algorithm a, std::size_t ranks,
                       std::size_t count, int root) {
  switch (kind) {
    case Collective::kBarrier:
      return barrier(ranks, a);
    case Collective::kBroadcast:
      return broadcast(ranks, count, root, a);
    case Collective::kReduce:
      return reduce(ranks, count, root, a);
    case Collective::kAllreduce:
      return allreduce(ranks, count, a);
    case Collective::kAllgather:
      return allgather(ranks, count, a);
    case Collective::kAlltoall:
      return alltoall(ranks, count, a);
    case Collective::kGather:
      return gather(ranks, count, root, a);
    case Collective::kScatter:
      return scatter(ranks, count, root, a);
    case Collective::kReduceScatter:
      return reduce_scatter(ranks, count, a);
    case Collective::kScan:
      return scan(ranks, count);
  }
  support::check_failed("unknown collective kind");
}

}  // namespace polaris::coll
