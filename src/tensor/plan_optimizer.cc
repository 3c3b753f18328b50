#include "src/tensor/plan_optimizer.h"

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/telemetry.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/plan_ir.h"
#include "src/tensor/shape.h"
#include "src/tensor/simd/simd_kernels.h"
#include "src/util/check.h"

namespace odnet {
namespace tensor {

namespace {

using capture::OpDesc;
using capture::OpKind;
using plan_ir::RecNode;
using plan_ir::RecValue;
using plan_ir::Recorder;

// ---------------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------------

bool FusionEnvEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("ODNET_PLAN_FUSION");
    return v == nullptr || std::string(v) != "0";
  }();
  return enabled;
}

// -1: follow the env; 0/1: FusionScope override.
thread_local int g_fusion_override = -1;

// ---------------------------------------------------------------------------
// Fused-chain execution
// ---------------------------------------------------------------------------

// Broadcast rank the row loop supports (leading dims of the chain shape).
constexpr int kMaxLeadDims = 7;

struct StageMeta {
  simd::FusedOp op = simd::FusedOp::kAdd;
  float param = 0.0f;
  int operand_slot = -1;  // index into the fused node's ins; -1: no operand
  int64_t col_stride = 0;
  bool spine_on_left = true;
  // Operand element-offset stride per leading dim of the chain shape
  // (right-aligned broadcast: 0 on broadcast/missing dims), as in the eager
  // BroadcastIterate model.
  int64_t lead_strides[kMaxLeadDims] = {0};
};

// Immutable execution recipe a fused node's replay kernel closes over.
struct FusedExec {
  int n_stages = 0;
  int64_t rows = 1;
  int64_t cols = 1;
  int64_t numel = 1;
  // Every binary operand has the full chain shape: partition the flat index
  // range instead of walking rows.
  bool flat = true;
  int lead_rank = 0;
  int64_t lead_dims[kMaxLeadDims] = {0};
  StageMeta stages[simd::kMaxFusedStages];
};

// The fused node's kernel. Like every recorded closure it re-checks the
// backend and re-resolves the dispatch table at execution time, so replays
// under the stamped capability and reference-backend captures both behave.
ReplayKernel MakeFusedKernel(std::shared_ptr<const FusedExec> exec) {
  return [exec = std::move(exec)](const ReplayPtrs& p) {
    const FusedExec& e = *exec;
    const float* x = p.in[0];
    float* y = p.out;
    // Row runner shared by the serial reference path and the optimized row
    // mode: per row, offset each broadcast operand by its leading strides.
    auto run_rows = [&](int64_t r0, int64_t r1, simd::FusedChainFn fn) {
      simd::FusedStageArgs sa[simd::kMaxFusedStages];
      for (int s = 0; s < e.n_stages; ++s) {
        sa[s].op = e.stages[s].op;
        sa[s].param = e.stages[s].param;
        sa[s].col_stride = e.stages[s].col_stride;
        sa[s].spine_on_left = e.stages[s].spine_on_left;
        sa[s].operand = nullptr;
      }
      int64_t coords[kMaxLeadDims] = {0};
      for (int64_t r = r0; r < r1; ++r) {
        int64_t rem = r;
        for (int d = e.lead_rank - 1; d >= 0; --d) {
          coords[d] = rem % e.lead_dims[d];
          rem /= e.lead_dims[d];
        }
        for (int s = 0; s < e.n_stages; ++s) {
          const StageMeta& m = e.stages[s];
          if (m.operand_slot < 0) continue;
          int64_t off = 0;
          for (int d = 0; d < e.lead_rank; ++d) {
            off += coords[d] * m.lead_strides[d];
          }
          sa[s].operand = p.in[m.operand_slot] + off;
        }
        fn(x + r * e.cols, y + r * e.cols, sa, e.n_stages, e.cols);
      }
    };
    if (ComputeContext::backend() == Backend::kReference) {
      // The scalar-tier fused chain evaluates exactly the reference scalar
      // expressions per element; serial, like every reference kernel.
      run_rows(0, e.rows,
               simd::KernelsFor(CpuCapability::kScalar).fused_chain);
      return;
    }
    const simd::FusedChainFn fn = simd::Kernels().fused_chain;
    ComputeContext& ctx = ComputeContext::Get();
    if (e.flat) {
      ctx.ParallelFor(e.numel, ctx.GrainFor(e.n_stages),
                      [&](int64_t b0, int64_t b1) {
                        simd::FusedStageArgs sa[simd::kMaxFusedStages];
                        for (int s = 0; s < e.n_stages; ++s) {
                          const StageMeta& m = e.stages[s];
                          sa[s].op = m.op;
                          sa[s].param = m.param;
                          sa[s].col_stride = m.operand_slot >= 0 ? 1 : 0;
                          sa[s].spine_on_left = m.spine_on_left;
                          sa[s].operand = m.operand_slot >= 0
                                              ? p.in[m.operand_slot] + b0
                                              : nullptr;
                        }
                        fn(x + b0, y + b0, sa, e.n_stages, b1 - b0);
                      });
    } else {
      ctx.ParallelFor(e.rows, ctx.GrainFor(e.cols * e.n_stages),
                      [&](int64_t r0, int64_t r1) { run_rows(r0, r1, fn); });
    }
  };
}

// ---------------------------------------------------------------------------
// Pass helpers
// ---------------------------------------------------------------------------

bool IsBinaryKind(OpKind k) {
  return k == OpKind::kAdd || k == OpKind::kSub || k == OpKind::kMul ||
         k == OpKind::kDiv;
}

bool IsFusableKind(OpKind k) {
  switch (k) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kAddScalar:
    case OpKind::kMulScalar:
    case OpKind::kRelu:
    case OpKind::kLeakyRelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kExp:
      return true;
    default:
      return false;
  }
}

simd::FusedOp ToFusedOp(OpKind k) {
  switch (k) {
    case OpKind::kAdd:
      return simd::FusedOp::kAdd;
    case OpKind::kSub:
      return simd::FusedOp::kSub;
    case OpKind::kMul:
      return simd::FusedOp::kMul;
    case OpKind::kDiv:
      return simd::FusedOp::kDiv;
    case OpKind::kAddScalar:
      return simd::FusedOp::kAddScalar;
    case OpKind::kMulScalar:
      return simd::FusedOp::kMulScalar;
    case OpKind::kRelu:
      return simd::FusedOp::kRelu;
    case OpKind::kLeakyRelu:
      return simd::FusedOp::kLeakyRelu;
    case OpKind::kSigmoid:
      return simd::FusedOp::kSigmoid;
    case OpKind::kTanh:
      return simd::FusedOp::kTanh;
    case OpKind::kExp:
      return simd::FusedOp::kExp;
    default:
      break;
  }
  ODNET_CHECK(false) << "not a fusable op kind";
  return simd::FusedOp::kAdd;
}

const char* OpKindLabel(OpKind k) {
  switch (k) {
    case OpKind::kAdd:
      return "Add";
    case OpKind::kSub:
      return "Sub";
    case OpKind::kMul:
      return "Mul";
    case OpKind::kDiv:
      return "Div";
    case OpKind::kAddScalar:
      return "AddScalar";
    case OpKind::kMulScalar:
      return "MulScalar";
    case OpKind::kRelu:
      return "Relu";
    case OpKind::kLeakyRelu:
      return "LeakyRelu";
    case OpKind::kSigmoid:
      return "Sigmoid";
    case OpKind::kTanh:
      return "Tanh";
    case OpKind::kExp:
      return "Exp";
    default:
      return "Op";
  }
}

// Effective strides of `shape` when broadcast to `out_shape` (the eager
// broadcast model from ops.cc): right-aligned, 0 on broadcast/missing dims.
std::vector<int64_t> BroadcastStrides(const Shape& shape,
                                      const Shape& out_shape) {
  std::vector<int64_t> natural = ContiguousStrides(shape);
  std::vector<int64_t> eff(out_shape.size(), 0);
  for (size_t i = 0; i < shape.size(); ++i) {
    size_t out_dim = out_shape.size() - shape.size() + i;
    eff[out_dim] = (shape[i] == 1) ? 0 : natural[i];
  }
  return eff;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public gate
// ---------------------------------------------------------------------------

bool PlanFusionEnabled() {
  if (g_fusion_override >= 0) return g_fusion_override != 0;
  return FusionEnvEnabled();
}

FusionScope::FusionScope(bool enabled) : prev_(g_fusion_override) {
  g_fusion_override = enabled ? 1 : 0;
}

FusionScope::~FusionScope() { g_fusion_override = prev_; }

// ---------------------------------------------------------------------------
// The optimizer
// ---------------------------------------------------------------------------

PlanOptimizeStats OptimizePlanIr(Recorder* rec,
                                 const std::vector<Tensor>& outs) {
  PlanOptimizeStats stats;
  const int nv = static_cast<int>(rec->values.size());
  const int nn = static_cast<int>(rec->nodes.size());

  // Walks producer alias edges down to the canonical root value (the one
  // whose producer, if any, actually executes).
  auto resolve_alias_root = [rec](int v) {
    while (true) {
      const int p = rec->values[static_cast<size_t>(v)].producer;
      if (p < 0) return v;
      const RecNode& n = rec->nodes[static_cast<size_t>(p)];
      if (n.alias_of < 0) return v;
      v = n.alias_of;
    }
  };

  // Values a program output resolves through: these must keep a produced
  // (slot- or constant-backed) root, and must never become an interior link
  // of a fused chain.
  std::vector<char> out_pinned(static_cast<size_t>(nv), 0);
  for (const Tensor& out : outs) {
    int v = rec->IdFor(out);
    out_pinned[static_cast<size_t>(v)] = 1;
    while (true) {
      const int p = rec->values[static_cast<size_t>(v)].producer;
      if (p < 0) break;
      const RecNode& n = rec->nodes[static_cast<size_t>(p)];
      if (n.alias_of < 0) break;
      v = n.alias_of;
      out_pinned[static_cast<size_t>(v)] = 1;
    }
  }

  // ------------------------------------------------------------ pass 1 --
  // No-op folding: the node becomes an alias edge (kernel dropped, no
  // buffer, no replay dispatch); PlanBuilder's alias collapse rewires every
  // consumer. Legality is bitwise: identity copies are exact by definition,
  // x * 1.0f == x for every float, and x + 0.0f == x except when x is
  // -0.0f — so add-0 folds only when the root producer provably never
  // emits -0.0f (Relu's ternary maps -0 to +0; Sigmoid, Exp and Softmax
  // outputs are never negative zero). Tanh(-0) == -0, so its add-0 stays.
  for (int i = 0; i < nn; ++i) {
    RecNode& node = rec->nodes[static_cast<size_t>(i)];
    if (node.host || node.alias_of >= 0 || !node.kernel) continue;
    if (node.ins.size() != 1) continue;
    bool fold = false;
    switch (node.desc.kind) {
      case OpKind::kIdentityCopy:
        fold = true;
        break;
      case OpKind::kMulScalar:
        fold = node.desc.param == 1.0f;
        break;
      case OpKind::kAddScalar:
        if (node.desc.param == 0.0f) {
          const int root = resolve_alias_root(node.ins[0]);
          const int p = rec->values[static_cast<size_t>(root)].producer;
          if (p >= 0) {
            const OpKind k = rec->nodes[static_cast<size_t>(p)].desc.kind;
            fold = k == OpKind::kRelu || k == OpKind::kSigmoid ||
                   k == OpKind::kExp || k == OpKind::kSoftmax;
          }
        }
        break;
      default:
        break;
    }
    if (!fold) continue;
    if (out_pinned[static_cast<size_t>(node.out)]) {
      // A program output would re-root through this fold; keep the copy
      // unless it lands on a produced value (an output must never alias a
      // rebindable input, and aliasing retained constants buys nothing).
      const int root = resolve_alias_root(node.ins[0]);
      if (rec->values[static_cast<size_t>(root)].producer < 0) continue;
    }
    stats.folded_nodes += 1;
    stats.elided_values += 1;
    stats.elided_bytes +=
        rec->values[static_cast<size_t>(node.out)].numel *
        static_cast<int64_t>(sizeof(float));
    node.alias_of = node.ins[0];
    node.ins.clear();
    node.kernel = nullptr;
    node.desc = OpDesc{};
  }

  // ------------------------------------------------------------ pass 2 --
  // Elementwise-chain fusion. Use counts and unique consumers over the
  // folded IR: an interior chain value must have exactly one consumer (its
  // successor in the chain) and must not be output-pinned.
  std::vector<int> uses(static_cast<size_t>(nv), 0);
  std::vector<int> consumer(static_cast<size_t>(nv), -1);
  for (int j = 0; j < nn; ++j) {
    const RecNode& n = rec->nodes[static_cast<size_t>(j)];
    for (int in : n.ins) {
      ++uses[static_cast<size_t>(in)];
      consumer[static_cast<size_t>(in)] = j;
    }
    if (n.alias_of >= 0) {
      ++uses[static_cast<size_t>(n.alias_of)];
      consumer[static_cast<size_t>(n.alias_of)] = j;
    }
  }

  std::vector<char> absorbed(static_cast<size_t>(nn), 0);
  for (int i = 0; i < nn; ++i) {
    if (absorbed[static_cast<size_t>(i)]) continue;
    const RecNode& head = rec->nodes[static_cast<size_t>(i)];
    if (head.host || head.alias_of >= 0 || !head.kernel || head.zero_out) {
      continue;
    }
    if (!IsFusableKind(head.desc.kind)) continue;
    const RecValue& head_out = rec->values[static_cast<size_t>(head.out)];
    const Shape S = head_out.shape;
    const int64_t numel = head_out.numel;
    if (numel <= 0) continue;
    if (static_cast<int>(S.size()) > kMaxLeadDims + 1) continue;

    // The spine: the operand stream the chain maps over, lane for lane. A
    // binary head's spine is whichever input already has the chain shape;
    // the other input rides along as a broadcast operand.
    int spine = -1;
    bool head_spine_left = true;
    if (IsBinaryKind(head.desc.kind)) {
      const Shape& a = rec->values[static_cast<size_t>(head.ins[0])].shape;
      const Shape& b = rec->values[static_cast<size_t>(head.ins[1])].shape;
      if (SameShape(a, S)) {
        spine = head.ins[0];
      } else if (SameShape(b, S)) {
        spine = head.ins[1];
        head_spine_left = false;
      } else {
        continue;  // both sides broadcast: no full-shape stream to map over
      }
    } else {
      spine = head.ins[0];
    }

    // Greedily extend: successor must be the out value's unique consumer,
    // elementwise, same shape, not yet absorbed elsewhere.
    std::vector<int> chain{i};
    std::vector<char> link_spine_left{head_spine_left};
    int tail_out = head.out;
    while (static_cast<int>(chain.size()) < simd::kMaxFusedStages) {
      if (out_pinned[static_cast<size_t>(tail_out)]) break;
      if (uses[static_cast<size_t>(tail_out)] != 1) break;
      const int j = consumer[static_cast<size_t>(tail_out)];
      if (j < 0 || absorbed[static_cast<size_t>(j)]) break;
      const RecNode& nj = rec->nodes[static_cast<size_t>(j)];
      if (nj.host || nj.alias_of >= 0 || !nj.kernel || nj.zero_out) break;
      if (!IsFusableKind(nj.desc.kind)) break;
      if (!SameShape(rec->values[static_cast<size_t>(nj.out)].shape, S)) {
        break;
      }
      bool spine_left = true;
      if (IsBinaryKind(nj.desc.kind)) {
        spine_left = nj.ins[0] == tail_out;
      }
      chain.push_back(j);
      link_spine_left.push_back(spine_left ? 1 : 0);
      tail_out = nj.out;
    }
    if (chain.size() < 2) continue;

    // Build the execution recipe and the fused node.
    auto ex = std::make_shared<FusedExec>();
    ex->numel = numel;
    ex->cols = S.empty() ? 1 : S.back();
    ex->rows = numel / ex->cols;
    ex->lead_rank = S.empty() ? 0 : static_cast<int>(S.size()) - 1;
    for (int d = 0; d < ex->lead_rank; ++d) {
      ex->lead_dims[d] = S[static_cast<size_t>(d)];
    }
    ex->n_stages = static_cast<int>(chain.size());
    std::vector<int> fused_ins{spine};
    std::string name = "Fused[";
    for (size_t k = 0; k < chain.size(); ++k) {
      const RecNode& nk = rec->nodes[static_cast<size_t>(chain[k])];
      StageMeta& m = ex->stages[k];
      m.op = ToFusedOp(nk.desc.kind);
      m.param = nk.desc.param;
      if (IsBinaryKind(nk.desc.kind)) {
        m.spine_on_left = link_spine_left[k] != 0;
        const int side = m.spine_on_left ? nk.ins[1] : nk.ins[0];
        const Shape& os = rec->values[static_cast<size_t>(side)].shape;
        m.operand_slot = static_cast<int>(fused_ins.size());
        fused_ins.push_back(side);
        if (!SameShape(os, S)) ex->flat = false;
        const std::vector<int64_t> eff = BroadcastStrides(os, S);
        m.col_stride = S.empty() ? 0 : eff.back();
        for (int d = 0; d < ex->lead_rank; ++d) {
          m.lead_strides[d] = eff[static_cast<size_t>(d)];
        }
      }
      if (k > 0) name += "+";
      name += OpKindLabel(nk.desc.kind);
      if (k + 1 < chain.size()) {
        const int mid = nk.out;
        stats.elided_values += 1;
        stats.elided_bytes +=
            rec->values[static_cast<size_t>(mid)].numel *
            static_cast<int64_t>(sizeof(float));
      }
    }
    name += "]";
    stats.fused_chains += 1;
    stats.fused_stages += static_cast<int64_t>(chain.size());

    RecNode fused;
    fused.kernel = MakeFusedKernel(std::move(ex));
    fused.ins = std::move(fused_ins);
    fused.out = tail_out;
    // Synthesized names outlive the plan in trace events: intern them.
    fused.name = telemetry::InternSpanName(std::move(name));
    // The fused node sits at the last chain node's position: every side
    // operand and the spine were produced at or before their original
    // consumers, and elementwise nodes are pure functions of plan values,
    // so sinking the absorbed stages past unrelated nodes is safe.
    rec->nodes[static_cast<size_t>(chain.back())] = std::move(fused);
    for (size_t k = 0; k + 1 < chain.size(); ++k) {
      absorbed[static_cast<size_t>(chain[k])] = 1;
    }
  }

  if (stats.fused_chains > 0) {
    std::vector<RecNode> kept;
    kept.reserve(rec->nodes.size());
    for (int j = 0; j < nn; ++j) {
      if (!absorbed[static_cast<size_t>(j)]) {
        kept.push_back(std::move(rec->nodes[static_cast<size_t>(j)]));
      }
    }
    // Stale RecValue::producer indices are harmless: PlanBuilder only tests
    // producer >= 0 (external vs produced), and absorbed intermediates are
    // referenced by no surviving node.
    rec->nodes = std::move(kept);
  }
  return stats;
}

}  // namespace tensor
}  // namespace odnet
