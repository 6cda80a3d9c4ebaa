#include "stream/query_builder.h"

namespace pipes {

// ---------------------------------------------------------------------------
// QueryBuilder
// ---------------------------------------------------------------------------

std::string QueryBuilder::NextLabel(const std::string& prefix) {
  return prefix + "_" + std::to_string(++label_counter_);
}

StreamBuilder QueryBuilder::From(std::shared_ptr<SourceNode> source) {
  if (source == nullptr) {
    return StreamBuilder(this, Status::InvalidArgument("null source"));
  }
  if (source->graph() == nullptr) {
    engine_.graph().RegisterNode(source);
  }
  if (source->graph() != &engine_.graph()) {
    return StreamBuilder(
        this, Status::InvalidArgument("source belongs to a different graph"));
  }
  sources_.push_back(source);
  return StreamBuilder(this, std::move(source));
}

StreamBuilder QueryBuilder::FromSynthetic(const std::string& label,
                                          double rate_per_sec,
                                          int64_t key_cardinality,
                                          uint64_t seed) {
  if (rate_per_sec <= 0.0 || key_cardinality <= 0) {
    return StreamBuilder(
        this, Status::InvalidArgument("synthetic source needs positive rate "
                                      "and key cardinality"));
  }
  auto interval = static_cast<Duration>(kMicrosPerSecond / rate_per_sec);
  auto source = engine_.graph().AddNode<SyntheticSource>(
      label, PairSchema(), std::make_unique<ConstantArrivals>(interval),
      MakeUniformPairGenerator(key_cardinality), seed);
  sources_.push_back(source);
  return StreamBuilder(this, std::move(source));
}

// ---------------------------------------------------------------------------
// StreamBuilder
// ---------------------------------------------------------------------------

StreamBuilder StreamBuilder::Advance(std::shared_ptr<Node> next) const {
  if (!status_.ok()) return *this;
  Status st = builder_->engine_.graph().Connect(*node_, *next);
  if (!st.ok()) return StreamBuilder(builder_, st);
  return StreamBuilder(builder_, std::move(next));
}

StreamBuilder StreamBuilder::Filter(FilterOperator::Predicate predicate,
                                    double work_cost) const {
  if (!status_.ok()) return *this;
  return Advance(builder_->engine_.graph().AddNode<FilterOperator>(
      builder_->NextLabel("filter"), std::move(predicate), work_cost));
}

StreamBuilder StreamBuilder::Filter(const expr::ExprPtr& predicate) const {
  if (!status_.ok()) return *this;
  auto compiled = expr::CompilePredicate(predicate, node_->output_schema());
  if (!compiled.ok()) return StreamBuilder(builder_, compiled.status());
  return Filter(std::move(compiled.value()), predicate->Cost());
}

StreamBuilder StreamBuilder::Select(
    const std::vector<expr::Projection>& projections) const {
  if (!status_.ok()) return *this;
  auto compiled =
      expr::CompileProjection(projections, node_->output_schema());
  if (!compiled.ok()) return StreamBuilder(builder_, compiled.status());
  return Map(std::move(compiled.value().first),
             std::move(compiled.value().second));
}

StreamBuilder StreamBuilder::Map(Schema output_schema,
                                 MapOperator::MapFn fn) const {
  if (!status_.ok()) return *this;
  return Advance(builder_->engine_.graph().AddNode<MapOperator>(
      builder_->NextLabel("map"), std::move(output_schema), std::move(fn)));
}

StreamBuilder StreamBuilder::Window(Duration window) const {
  if (!status_.ok()) return *this;
  if (window <= 0) {
    return StreamBuilder(builder_,
                         Status::InvalidArgument("window must be positive"));
  }
  return Advance(builder_->engine_.graph().AddNode<TimeWindowOperator>(
      builder_->NextLabel("window"), window));
}

StreamBuilder StreamBuilder::CountWindow(size_t n) const {
  if (!status_.ok()) return *this;
  if (n == 0) {
    return StreamBuilder(
        builder_, Status::InvalidArgument("count window must be positive"));
  }
  return Advance(builder_->engine_.graph().AddNode<CountWindowOperator>(
      builder_->NextLabel("count_window"), n));
}

StreamBuilder StreamBuilder::Shed(double drop_probability) const {
  if (!status_.ok()) return *this;
  return Advance(builder_->engine_.graph().AddNode<RandomDropOperator>(
      builder_->NextLabel("shed"), drop_probability));
}

StreamBuilder StreamBuilder::Merge(const StreamBuilder& other) const {
  if (!status_.ok()) return *this;
  if (!other.status_.ok()) return other;
  auto merge = builder_->engine_.graph().AddNode<UnionOperator>(
      builder_->NextLabel("union"));
  StreamBuilder advanced = Advance(merge);
  if (!advanced.status_.ok()) return advanced;
  Status st = builder_->engine_.graph().Connect(*other.node_, *merge);
  if (!st.ok()) return StreamBuilder(builder_, st);
  return advanced;
}

StreamBuilder StreamBuilder::JoinOn(const StreamBuilder& other,
                                    size_t left_column, size_t right_column,
                                    bool hash) const {
  if (!status_.ok()) return *this;
  if (!other.status_.ok()) return other;
  auto& g = builder_->engine_.graph();
  std::shared_ptr<SlidingWindowJoin> join;
  std::string label = builder_->NextLabel("join");
  if (hash) {
    join = g.AddNode<SlidingWindowJoin>(label, left_column, right_column);
  } else {
    join = g.AddNode<SlidingWindowJoin>(
        label, EquiJoinPredicate(left_column, right_column));
  }
  Status st = g.Connect(*node_, *join);
  if (st.ok()) st = g.Connect(*other.node_, *join);
  if (!st.ok()) return StreamBuilder(builder_, st);

  // Register the Figure 3 estimates where the plan shape supports them:
  // both inputs are time windows directly over nodes that can carry a
  // source-style rate estimate.
  auto* lwin = dynamic_cast<TimeWindowOperator*>(node_.get());
  auto* rwin = dynamic_cast<TimeWindowOperator*>(other.node_.get());
  if (lwin != nullptr && rwin != nullptr) {
    auto estimate_input = [](TimeWindowOperator* w) -> Node* {
      return w->upstreams().empty() ? nullptr : w->upstreams()[0];
    };
    Node* lsrc = estimate_input(lwin);
    Node* rsrc = estimate_input(rwin);
    if (lsrc != nullptr && rsrc != nullptr) {
      auto define_rate_estimate = [](Node* n) {
        // Sources (and any rate-carrying node) estimate via the measured
        // output rate; ignore AlreadyExists from shared subplans.
        Status s = n->metadata_registry().Define(
            MetadataDescriptor::Triggered(keys::kEstOutputRate)
                .DependsOnSelf(keys::kOutputRate)
                .WithEvaluator([](EvalContext& ctx) -> MetadataValue {
                  return ctx.DepDouble(0);
                })
                .WithDescription(
                    "estimated rate: tracks the measured output rate "
                    "(triggered)"));
        if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
        return Status::OK();
      };
      Status cs = define_rate_estimate(lsrc);
      if (cs.ok()) cs = define_rate_estimate(rsrc);
      if (cs.ok()) cs = costmodel::RegisterWindowEstimates(*lwin);
      if (cs.ok() && rwin != lwin) {
        cs = costmodel::RegisterWindowEstimates(*rwin);
      }
      if (cs.ok()) {
        cs = costmodel::RegisterJoinEstimates(*join, 1.0, /*adaptive=*/hash);
      }
      if (!cs.ok() && cs.code() != StatusCode::kAlreadyExists) {
        return StreamBuilder(builder_, cs);
      }
    }
  }
  return StreamBuilder(builder_, std::move(join));
}

StreamBuilder StreamBuilder::Aggregate(Duration window, AggKind kind,
                                       size_t column) const {
  if (!status_.ok()) return *this;
  return Advance(builder_->engine_.graph().AddNode<TumblingAggregateOperator>(
      builder_->NextLabel("aggregate"), window, kind, column));
}

StreamBuilder StreamBuilder::GroupBy(Duration window, AggKind kind,
                                     size_t key_column,
                                     size_t value_column) const {
  if (!status_.ok()) return *this;
  return Advance(builder_->engine_.graph().AddNode<GroupedAggregateOperator>(
      builder_->NextLabel("group_by"), window, kind, key_column,
      value_column));
}

Result<StreamBuilder::Built> StreamBuilder::To(
    const std::shared_ptr<SinkNode>& sink) const {
  if (!status_.ok()) return status_;
  if (sink == nullptr) return Status::InvalidArgument("null sink");
  if (sink->graph() == nullptr) {
    builder_->engine_.graph().RegisterNode(sink);
  }
  Status st = builder_->engine_.graph().Connect(*node_, *sink);
  if (!st.ok()) return st;
  Result<QueryId> id = builder_->engine_.graph().RegisterQuery(sink);
  if (!id.ok()) return id.status();
  // Start every source this builder created; idempotent for running ones.
  for (const auto& source : builder_->sources_) {
    if (auto* synthetic = dynamic_cast<SyntheticSource*>(source.get())) {
      synthetic->Start();
    }
  }
  return Built{sink, id.value()};
}

Result<StreamBuilder::Built> StreamBuilder::Collect(const std::string& label,
                                                    size_t capacity) const {
  if (!status_.ok()) return status_;
  return To(builder_->engine_.graph().AddNode<CollectorSink>(label, capacity));
}

Result<StreamBuilder::Built> StreamBuilder::Count(
    const std::string& label) const {
  if (!status_.ok()) return status_;
  return To(builder_->engine_.graph().AddNode<CountingSink>(label));
}

}  // namespace pipes
