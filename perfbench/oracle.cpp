// Output oracle. Every value it compares against is computed in this
// process, from the same seed, so it holds on any host: nothing here is a
// number recorded on another machine.
//
//  1. Accounting: every submitted request resolved exactly once, and the
//     serving layer's outcome counters partition the submissions.
//  2. Logit sanity: each served request's logits are finite, have `classes`
//     entries, and predicted_class is their (first) argmax.
//  3. Bitwise reference: a fresh SupernetHost with the served systems'
//     SupernetOptions runs each distinct served (image, strategy) pair one
//     request at a time through a DistributedExecutor owned here; every
//     served logit vector must equal it bit for bit, whether it was served
//     fused, through a replica, or serially.
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <tuple>

#include "bench.h"
#include "core/strategy_cache.h"
#include "runtime/executor.h"
#include "runtime/supernet_host.h"

namespace murmur::perfbench {

void OracleReport::fail(const std::string& why) {
  ok = false;
  if (errors.size() < 8) errors.push_back(why);
}

namespace {

std::string describe(const Record& r) {
  std::ostringstream os;
  os << "request " << r.index << " (image " << r.image << ")";
  return os.str();
}

}  // namespace

OracleReport check_outputs(const PhaseResult& phase,
                           const std::vector<Tensor>& images,
                           const netsim::Network& network) {
  OracleReport rep;
  const Counters& c = phase.counters;

  // 1. Accounting.
  if (c.submitted != phase.records.size())
    rep.fail("serving counted " + std::to_string(c.submitted) +
             " submissions, generator made " +
             std::to_string(phase.records.size()));
  if (c.completed + c.degraded + c.shed + c.failed != c.submitted)
    rep.fail("outcome counters do not partition submitted");
  Counters tally;
  for (const Record& r : phase.records) {
    if (r.resolutions != 1)
      rep.fail(describe(r) + " resolved " + std::to_string(r.resolutions) +
               " times");
    switch (r.result.outcome) {
      case runtime::ServeOutcome::kCompleted: ++tally.completed; break;
      case runtime::ServeOutcome::kDegraded: ++tally.degraded; break;
      case runtime::ServeOutcome::kShed: ++tally.shed; break;
      case runtime::ServeOutcome::kFailed: ++tally.failed; break;
    }
  }
  if (tally.completed != c.completed || tally.degraded != c.degraded ||
      tally.shed != c.shed || tally.failed != c.failed)
    rep.fail("per-request outcomes disagree with the serving counters");

  // 2. Logit sanity, and grouping by (image, strategy) for 3.
  using Key = std::tuple<int, std::uint64_t, std::size_t>;
  std::map<Key, std::vector<const Record*>> groups;
  std::vector<core::MurmurationEnv::Strategy> strategies;
  for (const Record& r : phase.records) {
    if (!r.served()) continue;
    const auto& inf = r.result.inference;
    const Tensor& l = inf.logits;
    if (l.rank() != 2 || l.dim(0) != 1 || l.dim(1) != kClasses ||
        l.size() != static_cast<std::size_t>(kClasses)) {
      rep.fail(describe(r) + ": logits do not have " +
               std::to_string(kClasses) + " entries");
      continue;
    }
    int arg = 0;
    bool finite = true;
    for (int i = 0; i < kClasses; ++i) {
      finite = finite && std::isfinite(l.at(0, i));
      if (l.at(0, i) > l.at(0, arg)) arg = i;
    }
    if (!finite) rep.fail(describe(r) + ": non-finite logit");
    if (arg != inf.predicted_class)
      rep.fail(describe(r) + ": predicted_class " +
               std::to_string(inf.predicted_class) + " is not the argmax " +
               std::to_string(arg));
    const auto& s = inf.decision.strategy;
    const std::uint64_t fp = core::strategy_fingerprint(s.config, s.plan);
    // Fingerprints can collide: index strategies exactly.
    std::size_t idx = 0;
    while (idx < strategies.size() &&
           !(strategies[idx].config == s.config &&
             strategies[idx].plan == s.plan))
      ++idx;
    if (idx == strategies.size()) strategies.push_back(s);
    groups[Key{r.image, fp, idx}].push_back(&r);
  }

  // 3. Bitwise reference, one request at a time.
  runtime::SupernetHost host(supernet::SupernetOptions{
      .width_mult = kExecWidth, .classes = kClasses, .seed = kSystemSeed});
  runtime::DistributedExecutor exec(host.supernet(), network);
  for (const auto& [key, recs] : groups) {
    const auto& s = strategies[std::get<2>(key)];
    host.switch_submodel(s.config);
    const Tensor& img = images[static_cast<std::size_t>(std::get<0>(key))];
    const runtime::ExecutionReport ref =
        exec.run(center_crop(img, s.config.resolution), s.config, s.plan);
    ++rep.pairs_checked;
    for (const Record* r : recs) {
      ++rep.logits_checked;
      const Tensor& got = r->result.inference.logits;
      if (got.size() != ref.logits.size() ||
          std::memcmp(got.raw(), ref.logits.raw(),
                      got.size() * sizeof(float)) != 0)
        rep.fail(describe(*r) + ": logits differ from the reference run");
    }
  }
  return rep;
}

}  // namespace murmur::perfbench
