/// \file query_builder.h
/// \brief Fluent construction of continuous queries.
///
/// Wraps the node/Connect API in a chainable builder that accumulates the
/// first error (checked once at Register()):
///
/// \code
///   QueryBuilder qb(engine);
///   auto result = qb.FromSynthetic("sensors", 100.0, 16)
///                     .Window(Seconds(2))
///                     .JoinOn(qb.FromSynthetic("events", 50.0, 16)
///                                 .Window(Seconds(2)),
///                             0, 0)
///                     .Filter([](const Tuple& t) { return t.DoubleAt(1) > 0.5; })
///                     .Collect("out");
///   // result.ok() -> result->sink, result->query_id, started sources
/// \endcode
///
/// Window joins built through the builder get the Figure 3 cost-model
/// estimates registered automatically.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "costmodel/costmodel.h"
#include "stream/engine.h"
#include "stream/expr.h"
#include "stream/operators/aggregate.h"
#include "stream/operators/basic.h"
#include "stream/operators/count_window.h"
#include "stream/operators/group_aggregate.h"
#include "stream/operators/join.h"
#include "stream/operators/window.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace pipes {

class QueryBuilder;

/// \brief Chainable handle to the current head of a query pipeline.
///
/// Copyable (a copy forks the pipeline from the same head). All chaining
/// methods are no-ops once an error occurred; the error surfaces at
/// Collect()/Count()/To().
class StreamBuilder {
 public:
  /// \name Operators
  ///@{
  StreamBuilder Filter(FilterOperator::Predicate predicate,
                       double work_cost = 1.0) const;
  /// Declarative filter: the expression is validated against the current
  /// schema and its estimated cost becomes the operator's work cost.
  StreamBuilder Filter(const expr::ExprPtr& predicate) const;
  StreamBuilder Map(Schema output_schema, MapOperator::MapFn fn) const;
  /// Declarative projection via expressions.
  StreamBuilder Select(const std::vector<expr::Projection>& projections) const;
  StreamBuilder Window(Duration window) const;
  StreamBuilder CountWindow(size_t n) const;
  StreamBuilder Shed(double drop_probability = 0.0) const;
  StreamBuilder Merge(const StreamBuilder& other) const;
  /// Hash equi-join with `other` on integer columns. Both sides should have
  /// windows applied; the cost model is registered when auto-cost-model is
  /// on and both inputs are TimeWindowOperators over sources.
  StreamBuilder JoinOn(const StreamBuilder& other, size_t left_column,
                       size_t right_column, bool hash = true) const;
  StreamBuilder Aggregate(Duration window, AggKind kind,
                          size_t column = 1) const;
  StreamBuilder GroupBy(Duration window, AggKind kind, size_t key_column = 0,
                        size_t value_column = 1) const;
  ///@}

  /// \name Terminals (register the query; start all involved sources)
  ///@{
  struct Built {
    std::shared_ptr<SinkNode> sink;
    QueryId query_id = 0;
  };
  /// Ends in a CollectorSink.
  Result<Built> Collect(const std::string& label,
                        size_t capacity = 1 << 20) const;
  /// Ends in a CountingSink.
  Result<Built> Count(const std::string& label) const;
  /// Ends in a caller-provided sink.
  Result<Built> To(const std::shared_ptr<SinkNode>& sink) const;
  ///@}

  /// The current head node (for subscriptions and inspection); null after
  /// an error.
  const std::shared_ptr<Node>& node() const { return node_; }

  /// First error on this pipeline (OK while healthy).
  const Status& status() const { return status_; }

 private:
  friend class QueryBuilder;
  StreamBuilder(QueryBuilder* builder, std::shared_ptr<Node> node)
      : builder_(builder), node_(std::move(node)) {}
  StreamBuilder(QueryBuilder* builder, Status error)
      : builder_(builder), status_(std::move(error)) {}

  /// Adds `next`, connects head -> next, returns the advanced builder.
  StreamBuilder Advance(std::shared_ptr<Node> next) const;

  QueryBuilder* builder_ = nullptr;
  std::shared_ptr<Node> node_;
  Status status_;
};

/// \brief Entry point: creates pipeline heads bound to one engine.
class QueryBuilder {
 public:
  explicit QueryBuilder(StreamEngine& engine) : engine_(engine) {}

  /// Starts a pipeline from an existing source.
  StreamBuilder From(std::shared_ptr<SourceNode> source);

  /// Creates a constant-rate synthetic source of (id, value) pairs.
  StreamBuilder FromSynthetic(const std::string& label, double rate_per_sec,
                              int64_t key_cardinality, uint64_t seed = 42);

  StreamEngine& engine() { return engine_; }

  /// Fresh auto-generated label ("<prefix>_<n>").
  std::string NextLabel(const std::string& prefix);

  /// Sources created/seen by this builder; terminals start them all.
  const std::vector<std::shared_ptr<SourceNode>>& sources() const {
    return sources_;
  }

 private:
  friend class StreamBuilder;

  StreamEngine& engine_;
  int label_counter_ = 0;
  std::vector<std::shared_ptr<SourceNode>> sources_;
};

}  // namespace pipes
