// The benchmark's own checks: its inputs are a pure function of the seed,
// and it never reports a percentile from too few samples.  Exits non-zero
// on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "gnumap/io/snp_catalog.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  } else {
    std::printf("ok: %s\n", what);
  }
}

/// Every byte a workload's inputs consist of, for one seed.
std::string rendered_inputs(std::uint64_t seed) {
  const perfbench::Reference ref = perfbench::make_reference(seed);
  std::string all = perfbench::reference_fasta(ref.genome);
  std::ostringstream truth;
  gnumap::write_catalog(truth, ref.truth);
  all += truth.str();
  all += perfbench::batch_fastq(ref, seed);
  for (const auto& request : perfbench::amplicon_requests(ref, seed, 12)) {
    all += request.fastq;
  }
  return all;
}

}  // namespace

int main() {
  const std::string a = rendered_inputs(11);
  const std::string b = rendered_inputs(11);
  const std::string c = rendered_inputs(12);
  check(!a.empty() && a == b, "same seed gives byte-identical inputs");
  check(a != c, "another seed gives different inputs");

  const auto s1 = perfbench::arrival_schedule(11, 120, 8.0);
  const auto s2 = perfbench::arrival_schedule(11, 120, 8.0);
  const auto s3 = perfbench::arrival_schedule(12, 120, 8.0);
  check(s1 == s2, "same seed gives an identical arrival schedule");
  check(s1 != s3, "another seed gives a different arrival schedule");
  check(s1.size() == 120 && s1.front() >= 0.0 && s1.back() < 120 / 8.0,
        "schedule offers exactly count/rate seconds of arrivals");

  const perfbench::Reference ref = perfbench::make_reference(11);
  bool covers = true;
  for (const auto& request : perfbench::amplicon_requests(ref, 11, 12)) {
    covers = covers && !request.truth.empty();
  }
  check(covers, "every amplicon request covers a planted SNP");

  std::vector<double> v;
  for (int i = 0; i < 200; ++i) v.push_back(i);
  const std::vector<double> v99(v.begin(), v.begin() + 99);
  const std::vector<double> v100(v.begin(), v.begin() + 100);
  const std::vector<double> v19(v.begin(), v.begin() + 19);
  const std::vector<double> v20(v.begin(), v.begin() + 20);
  check(!perfbench::percentile(v99, 0.9), "no p90 from 99 samples");
  check(perfbench::percentile(v100, 0.9) == 89.0, "p90 of 100 samples");
  check(!perfbench::percentile(v19, 0.5), "no p50 from 19 samples");
  check(perfbench::percentile(v20, 0.5) == 9.0, "p50 of 20 samples");
  check(!perfbench::percentile({}, 0.5), "no percentile of nothing");
  return failures == 0 ? 0 : 1;
}
