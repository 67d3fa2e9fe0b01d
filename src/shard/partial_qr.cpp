#include "shard/partial_qr.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "parallel/hot_path.h"

namespace flexcore::shard {

std::vector<RowRange> plan_shards(std::size_t rows, std::size_t shards) {
  if (rows == 0) throw std::invalid_argument("plan_shards: rows == 0");
  if (shards == 0) throw std::invalid_argument("plan_shards: shards == 0");
  const std::size_t c = std::min(rows, shards);
  const std::size_t base = rows / c;
  const std::size_t extra = rows % c;  // first `extra` clusters get one more
  std::vector<RowRange> plan(c);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < c; ++i) {
    const std::size_t count = base + (i < extra ? 1 : 0);
    plan[i] = RowRange{begin, count};
    begin += count;
  }
  return plan;
}

FLEXCORE_HOT_PATH
void compute_partial_into(linalg::CMatView h_rows, PartialQr* out) {
  if (h_rows.rows() < h_rows.cols()) {
    // Thin cluster: fewer antennas than streams — no compression possible,
    // rows pass through under the identity rotation (an empty Q).
    // flexcore-lint: allow-next-line(HP001) warm-capacity reshape, to empty
    out->q.assign(linalg::CMatView{});
    // flexcore-lint: allow-next-line(HP001) warm-capacity growth of the rows
    out->r.assign(h_rows);
    return;
  }
  // With exactly one cluster spanning all rows this IS qr_mgs on the full
  // channel (tolerant path is bit-identical for full-rank input), which is
  // what makes the C=1 partial bit-identity test meaningful.
  linalg::qr_mgs_tolerant_into(h_rows, &out->q, &out->r);
}

PartialQr compute_partial(linalg::CMatView h_rows) {
  PartialQr out;
  compute_partial_into(h_rows, &out);
  return out;
}

void rotate_partial(const PartialQr& partial,
                    std::span<const linalg::cplx> y_rows,
                    std::span<linalg::cplx> out) {
  if (partial.q.empty()) {
    // Pass-through cluster: ybar_c = y_c verbatim.
    assert(out.size() == y_rows.size());
    std::copy(y_rows.begin(), y_rows.end(), out.begin());
    return;
  }
  linalg::hermitian_mul_into(partial.q, y_rows, out);
}

std::size_t merged_rows(std::span<const RowRange> plan, std::size_t nt) {
  std::size_t k = 0;
  for (const RowRange& range : plan) k += compressed_rows(range, nt);
  return k;
}

linalg::CMat stack_partials(std::span<const PartialQr> partials) {
  std::size_t k = 0;
  std::size_t nt = 0;
  for (const PartialQr& p : partials) {
    k += p.r.rows();
    nt = p.r.cols();
  }
  linalg::CMat s(k, nt);
  std::size_t row = 0;
  for (const PartialQr& p : partials) {
    std::memcpy(s.data() + row * nt, p.r.data(),
                p.r.rows() * nt * sizeof(linalg::cplx));
    row += p.r.rows();
  }
  return s;
}

}  // namespace flexcore::shard
