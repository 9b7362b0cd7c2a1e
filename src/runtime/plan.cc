#include "src/runtime/plan.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "src/common/check.h"

namespace stateslice {

void QueryPlan::RegisterOperator(std::unique_ptr<Operator> op) {
  op->set_cost_counters(&cost_counters_);
  operators_.push_back(std::move(op));
}

EventQueue* QueryPlan::AddEntryQueue(const std::string& name, Operator* op,
                                     int port) {
  queues_.push_back(std::make_unique<EventQueue>(name));
  EventQueue* queue = queues_.back().get();
  op->AttachInput(port, queue);
  consumer_edges_.push_back({queue, {op, port}});
  return queue;
}

EventQueue* QueryPlan::Connect(Operator* from, int out_port, Operator* to,
                               int in_port) {
  std::ostringstream name;
  name << from->name() << ":" << out_port << "->" << to->name() << ":"
       << in_port;
  queues_.push_back(std::make_unique<EventQueue>(name.str()));
  EventQueue* queue = queues_.back().get();
  from->AttachOutput(out_port, queue);
  to->AttachInput(in_port, queue);
  consumer_edges_.push_back({queue, {to, in_port}});
  producer_edges_.push_back({from, queue});
  return queue;
}

EventQueue* QueryPlan::AddExitQueue(const std::string& name, Operator* from,
                                    int out_port) {
  queues_.push_back(std::make_unique<EventQueue>(name));
  EventQueue* queue = queues_.back().get();
  from->AttachOutput(out_port, queue);
  producer_edges_.push_back({from, queue});
  return queue;
}

std::vector<Operator*> QueryPlan::TopologicalOrder() const {
  // Build operator -> operator adjacency via queues.
  std::map<const EventQueue*, Operator*> consumer_of;
  for (const auto& [queue, consumer] : consumer_edges_) {
    consumer_of[queue] = consumer.first;
  }
  std::map<Operator*, std::vector<Operator*>> adj;
  std::map<Operator*, int> indegree;
  for (const auto& op : operators_) indegree[op.get()] = 0;
  for (const auto& [producer, queue] : producer_edges_) {
    auto it = consumer_of.find(queue);
    if (it == consumer_of.end()) continue;  // exit queue
    adj[producer].push_back(it->second);
    ++indegree[it->second];
  }
  std::vector<Operator*> order;
  std::vector<Operator*> ready;
  for (const auto& op : operators_) {
    if (indegree[op.get()] == 0) ready.push_back(op.get());
  }
  while (!ready.empty()) {
    Operator* op = ready.back();
    ready.pop_back();
    order.push_back(op);
    for (Operator* next : adj[op]) {
      if (--indegree[next] == 0) ready.push_back(next);
    }
  }
  SLICE_CHECK_EQ(order.size(), operators_.size());  // acyclic
  return order;
}

void QueryPlan::Start() {
  SLICE_CHECK(!started_);
  started_ = true;
  // Topological-order check doubles as the acyclicity validation.
  const std::vector<Operator*> order = TopologicalOrder();
  for (Operator* op : order) op->Start();
}

void QueryPlan::FinishAll() {
  // Flush-time composites draw tail storage from the plan arena like
  // scheduled ones do.
  ArenaScope arena_scope(&arena_);
  // Finish in topological order; a Finish() may emit flush events, and
  // calling in topo order guarantees a single pass suffices when the caller
  // drains afterwards.
  for (Operator* op : TopologicalOrder()) op->Finish();
}

size_t QueryPlan::TotalStateSize() const {
  size_t total = 0;
  for (const auto& op : operators_) total += op->StateSize();
  return total;
}

size_t QueryPlan::TotalQueueSize() const {
  size_t total = 0;
  for (const auto& queue : queues_) total += queue->size();
  return total;
}

void QueryPlan::RemoveOperatorWhileRunning(Operator* op) {
  SLICE_CHECK(active_mode_ == ExecutionMode::kDeterministic);
  for (const auto& [queue, consumer] : consumer_edges_) {
    if (consumer.first == op) {
      SLICE_CHECK(queue->empty());
    }
  }
  consumer_edges_.erase(
      std::remove_if(consumer_edges_.begin(), consumer_edges_.end(),
                     [op](const auto& e) { return e.second.first == op; }),
      consumer_edges_.end());
  producer_edges_.erase(
      std::remove_if(producer_edges_.begin(), producer_edges_.end(),
                     [op](const auto& e) { return e.first == op; }),
      producer_edges_.end());
  auto it = std::find_if(operators_.begin(), operators_.end(),
                         [op](const auto& p) { return p.get() == op; });
  SLICE_CHECK(it != operators_.end());
  operators_.erase(it);
}

EventQueue* QueryPlan::ConnectWhileRunning(Operator* from, int out_port,
                                           Operator* to, int in_port) {
  SLICE_CHECK(active_mode_ == ExecutionMode::kDeterministic);
  std::ostringstream name;
  name << from->name() << ":" << out_port << "->" << to->name() << ":"
       << in_port << " (live)";
  queues_.push_back(std::make_unique<EventQueue>(name.str()));
  EventQueue* queue = queues_.back().get();
  from->AttachOutput(out_port, queue);
  to->ReplaceInput(in_port, queue);
  consumer_edges_.push_back({queue, {to, in_port}});
  producer_edges_.push_back({from, queue});
  return queue;
}

void QueryPlan::MoveQueueProducer(EventQueue* queue, Operator* old_from,
                                  int old_port, Operator* new_from,
                                  int new_port) {
  SLICE_CHECK(active_mode_ == ExecutionMode::kDeterministic);
  old_from->DetachOutput(old_port, queue);
  new_from->AttachOutput(new_port, queue);
  for (auto& [producer, q] : producer_edges_) {
    if (q == queue && producer == old_from) {
      producer = new_from;
      return;
    }
  }
  SLICE_CHECK(false);  // queue was not an edge of old_from
}

void QueryPlan::RetireQueue(EventQueue* queue) {
  SLICE_CHECK(active_mode_ == ExecutionMode::kDeterministic);
  SLICE_CHECK(queue->empty());
  consumer_edges_.erase(
      std::remove_if(consumer_edges_.begin(), consumer_edges_.end(),
                     [queue](const auto& e) { return e.first == queue; }),
      consumer_edges_.end());
  producer_edges_.erase(
      std::remove_if(producer_edges_.begin(), producer_edges_.end(),
                     [queue](const auto& e) { return e.second == queue; }),
      producer_edges_.end());
}

void QueryPlan::ReplaceQueueConsumer(EventQueue* queue, Operator* to,
                                     int in_port) {
  SLICE_CHECK(active_mode_ == ExecutionMode::kDeterministic);
  for (auto& [q, consumer] : consumer_edges_) {
    if (q == queue) {
      consumer = {to, in_port};
      to->ReplaceInput(in_port, queue);
      return;
    }
  }
  SLICE_CHECK(false);  // queue had no consumer
}

std::string QueryPlan::ToDot() const {
  std::map<const EventQueue*, Operator*> consumer_of;
  for (const auto& [queue, consumer] : consumer_edges_) {
    consumer_of[queue] = consumer.first;
  }
  std::ostringstream out;
  out << "digraph plan {\n  rankdir=LR;\n";
  for (const auto& op : operators_) {
    out << "  \"" << op->name() << "\" [shape=box];\n";
  }
  for (const auto& [producer, queue] : producer_edges_) {
    auto it = consumer_of.find(queue);
    if (it == consumer_of.end()) {
      out << "  \"" << producer->name() << "\" -> \"(exit:" << queue->name()
          << ")\";\n";
    } else {
      out << "  \"" << producer->name() << "\" -> \"" << it->second->name()
          << "\";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace stateslice
