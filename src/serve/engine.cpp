#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/fmt.hpp"

namespace remgen::serve {

namespace {

bool all_finite(const obs::Json& value) {
  if (value.is_number()) return std::isfinite(value.as_double());
  if (value.is_array()) {
    return std::all_of(value.as_array().begin(), value.as_array().end(), all_finite);
  }
  if (value.is_object()) {
    return std::all_of(value.as_object().begin(), value.as_object().end(),
                       [](const auto& member) { return all_finite(member.second); });
  }
  return true;
}

/// An ok=false reply, counted in serve.errors.
Response error_response(std::int64_t id, std::string error) {
  REMGEN_COUNTER_ADD("serve.errors", 1);
  Response response;
  response.id = id;
  response.ok = false;
  response.error = std::move(error);
  return response;
}

/// Every result leaves the engine through here. JSON has no NaN or
/// infinity, so a model or REM cell that yields one fails its own request
/// instead of the writer that would serialise the reply.
Response checked(Response response) {
  if (!all_finite(response.body)) {
    return error_response(response.id, "reply holds a non-finite number");
  }
  return response;
}

}  // namespace

QueryEngine::QueryEngine(store::Snapshot snapshot, std::size_t cache_bytes)
    : snapshot_(std::move(snapshot)), cache_(cache_bytes) {
  if (snapshot_.model == nullptr) {
    throw std::runtime_error("serve: snapshot carries no model");
  }
  const std::set<radio::MacAddress> macs = snapshot_.dataset.distinct_macs();
  macs_.assign(macs.begin(), macs.end());
}

bool QueryEngine::knows(const radio::MacAddress& mac) const {
  return std::binary_search(macs_.begin(), macs_.end(), mac);
}

void QueryEngine::predict_many(std::span<const MacPoint> queries, std::span<double> out) const {
  // Cache pass first; every miss is collected and answered by one batched
  // model call. The model's batched kernel is bit-identical to its scalar
  // path, so a value never depends on which queries shared its batch, and
  // duplicate queries within one batch produce duplicate (equal) predictions.
  thread_local std::vector<std::size_t> miss_index;
  thread_local std::vector<data::Sample> miss_queries;
  thread_local std::vector<double> miss_values;
  miss_index.clear();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::optional<double> cached = cache_.get(queries[i].mac, queries[i].point);
    if (cached.has_value()) {
      out[i] = *cached;
    } else {
      miss_index.push_back(i);
    }
  }
  if (miss_index.empty()) return;
  miss_queries.resize(miss_index.size());
  miss_values.resize(miss_index.size());
  for (std::size_t j = 0; j < miss_index.size(); ++j) {
    miss_queries[j].mac = queries[miss_index[j]].mac;
    miss_queries[j].position = queries[miss_index[j]].point;
  }
  snapshot_.model->predict_batch(miss_queries, miss_values);
  for (std::size_t j = 0; j < miss_index.size(); ++j) {
    const MacPoint& q = queries[miss_index[j]];
    cache_.put(q.mac, q.point, miss_values[j]);
    out[miss_index[j]] = miss_values[j];
  }
}

Response QueryEngine::execute_point(const Request& request) const {
  Response response;
  response.id = request.id;
  const geom::Vec3& point = request.points.front();
  if (request.mac.has_value() && !knows(*request.mac)) {
    throw std::runtime_error(util::format("unknown mac '{}'", request.mac->to_string()));
  }
  // One MAC at the point, or for best-AP every known MAC (macs_ is sorted,
  // so per-MAC estimators see one run per MAC in the batch).
  thread_local std::vector<MacPoint> queries;
  thread_local std::vector<double> values;
  queries.clear();
  if (request.mac.has_value()) {
    queries.push_back({*request.mac, point});
  } else {
    for (const radio::MacAddress& mac : macs_) queries.push_back({mac, point});
  }
  values.resize(queries.size());
  predict_many(queries, values);
  obs::Json::Object body;
  if (request.mac.has_value()) {
    body["mac"] = obs::Json(request.mac->to_string());
    body["rss_dbm"] = obs::Json(values.front());
  } else {
    // Strongest first; ties broken by MAC so the ordering is deterministic.
    std::vector<std::pair<double, radio::MacAddress>> ranked;
    ranked.reserve(macs_.size());
    for (std::size_t i = 0; i < macs_.size(); ++i) ranked.emplace_back(values[i], macs_[i]);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    obs::Json::Array best;
    const std::size_t n = std::min(request.top, ranked.size());
    for (std::size_t i = 0; i < n; ++i) {
      best.push_back(obs::Json(obs::Json::Object{
          {"mac", obs::Json(ranked[i].second.to_string())},
          {"rss_dbm", obs::Json(ranked[i].first)},
      }));
    }
    body["best"] = obs::Json(std::move(best));
  }
  response.body = obs::Json(std::move(body));
  return response;
}

Response QueryEngine::execute_batch(const Request& request) const {
  if (!request.mac.has_value()) {
    throw std::runtime_error("batch queries need a 'mac'");
  }
  if (!knows(*request.mac)) {
    throw std::runtime_error(util::format("unknown mac '{}'", request.mac->to_string()));
  }
  REMGEN_HISTOGRAM_OBSERVE("serve.batch_points", request.points.size(),
                           {1, 8, 64, 512, 4096});
  Response response;
  response.id = request.id;
  thread_local std::vector<MacPoint> batch_queries;
  thread_local std::vector<double> batch_values;
  batch_queries.clear();
  for (const geom::Vec3& point : request.points) batch_queries.push_back({*request.mac, point});
  batch_values.resize(batch_queries.size());
  predict_many(batch_queries, batch_values);
  obs::Json::Array values;
  values.reserve(request.points.size());
  for (const double v : batch_values) values.push_back(obs::Json(v));
  obs::Json::Object body;
  body["mac"] = obs::Json(request.mac->to_string());
  body["rss_dbm"] = obs::Json(std::move(values));
  response.body = obs::Json(std::move(body));
  return response;
}

Response QueryEngine::execute_volume(const Request& request) const {
  if (!snapshot_.rem.has_value()) {
    throw std::runtime_error("volume queries need a snapshot with a baked REM");
  }
  const core::RadioEnvironmentMap& rem = *snapshot_.rem;
  const geom::GridGeometry& g = rem.geometry();

  std::size_t voxels = 0;
  std::size_t covered = 0;
  double rss_sum = 0.0;
  for (std::size_t iz = 0; iz < g.nz(); ++iz) {
    const double zc = g.voxel_center({0, 0, iz}).z;
    if (zc < request.z_lo || zc > request.z_hi) continue;
    for (std::size_t iy = 0; iy < g.ny(); ++iy) {
      for (std::size_t ix = 0; ix < g.nx(); ++ix) {
        const double best = rem.best_rss({ix, iy, iz});
        ++voxels;
        rss_sum += best;
        if (best >= request.threshold_dbm) ++covered;
      }
    }
  }

  Response response;
  response.id = request.id;
  obs::Json::Object body;
  body["voxels"] = obs::Json(static_cast<double>(voxels));
  body["covered"] = obs::Json(static_cast<double>(covered));
  body["dark"] = obs::Json(static_cast<double>(voxels - covered));
  body["threshold_dbm"] = obs::Json(request.threshold_dbm);
  if (voxels > 0) {
    body["coverage"] = obs::Json(static_cast<double>(covered) / static_cast<double>(voxels));
    body["mean_best_rss_dbm"] = obs::Json(rss_sum / static_cast<double>(voxels));
  }
  response.body = obs::Json(std::move(body));
  return response;
}

Response QueryEngine::execute(const Request& request) const {
  REMGEN_SCOPE("serve.execute");
  REMGEN_COUNTER_ADD("serve.queries", 1);
  try {
    switch (request.type) {
      case RequestType::Point: return checked(execute_point(request));
      case RequestType::Batch: return checked(execute_batch(request));
      case RequestType::Volume: return checked(execute_volume(request));
    }
    throw std::runtime_error("unreachable request type");
  } catch (const std::exception& e) {
    return error_response(request.id, e.what());
  }
}

std::vector<Response> QueryEngine::execute_coalesced(const std::vector<Request>& requests) const {
  REMGEN_SCOPE("serve.execute_coalesced");
  // Work units: single-point queries naming a known MAC are grouped per MAC
  // and answered by ONE predict_many call (cache misses across the whole
  // group become one predict_batch); everything else — best-AP, batch,
  // volume, unknown MAC — executes individually. execute() answers a point
  // through the same predict_many, whose values do not depend on the batch,
  // so every response matches what execute() would have produced, byte for
  // byte.
  struct Unit {
    std::optional<radio::MacAddress> mac;  // Set => coalesced point group.
    std::vector<std::size_t> indices;      // Request indices in input order.
  };
  std::vector<Unit> units;
  std::map<radio::MacAddress, std::size_t> group_of;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.type == RequestType::Point && r.mac.has_value() && knows(*r.mac)) {
      const auto [it, inserted] = group_of.try_emplace(*r.mac, units.size());
      if (inserted) units.push_back(Unit{*r.mac, {}});
      units[it->second].indices.push_back(i);
    } else {
      units.push_back(Unit{std::nullopt, {i}});
    }
  }

  std::vector<Response> responses(requests.size());
  const auto run_unit = [&](std::size_t u) {
    const Unit& unit = units[u];
    if (!unit.mac.has_value()) {
      const std::size_t i = unit.indices.front();
      responses[i] = execute(requests[i]);
      return;
    }
    REMGEN_COUNTER_ADD("serve.queries", static_cast<std::int64_t>(unit.indices.size()));
    REMGEN_HISTOGRAM_OBSERVE("serve.coalesced_points", unit.indices.size(), {1, 8, 64, 512, 4096});
    thread_local std::vector<MacPoint> unit_queries;
    thread_local std::vector<double> unit_values;
    unit_queries.clear();
    for (const std::size_t i : unit.indices) {
      unit_queries.push_back({*unit.mac, requests[i].points.front()});
    }
    unit_values.resize(unit_queries.size());
    predict_many(unit_queries, unit_values);
    for (std::size_t j = 0; j < unit.indices.size(); ++j) {
      const std::size_t i = unit.indices[j];
      Response response;
      response.id = requests[i].id;
      obs::Json::Object body;
      body["mac"] = obs::Json(unit.mac->to_string());
      body["rss_dbm"] = obs::Json(unit_values[j]);
      response.body = obs::Json(std::move(body));
      responses[i] = checked(std::move(response));
    }
  };
  // Each unit writes only to its own requests' index-addressed slots, so the
  // schedule never shows in the output.
  exec::parallel_for(units.size(), run_unit,
                     exec::chunk_for_cost(units.size(), /*est_item_us=*/100.0),
                     "serve.execute_coalesced");
  return responses;
}

std::vector<Response> QueryEngine::execute_all(const std::vector<Request>& requests) const {
  REMGEN_SCOPE("serve.execute_all");
  // Request execution costs tens of microseconds (cache hit) to a few
  // hundred (model misses) — the cost heuristic picks small chunks.
  std::vector<Response> responses = exec::parallel_map(
      requests.size(), [&](std::size_t i) { return execute(requests[i]); },
      exec::chunk_for_cost(requests.size(), /*est_item_us=*/100.0), "serve.execute_all");
  std::stable_sort(responses.begin(), responses.end(),
                   [](const Response& a, const Response& b) { return a.id < b.id; });
  return responses;
}

ReplayStats QueryEngine::replay_jsonl(std::istream& in, std::ostream& out) const {
  REMGEN_SCOPE("serve.replay");
  const auto start = std::chrono::steady_clock::now();
  // Snapshot the cache counters: ReplayStats reports THIS run's hits and
  // misses. The counters themselves are cumulative over the engine's
  // lifetime, so a second replay on the same engine (a long-running server's
  // steady state) must subtract the baseline instead of double-counting.
  const std::uint64_t cache_hits_at_entry = cache_.hits();
  const std::uint64_t cache_misses_at_entry = cache_.misses();

  // Parse sequentially: line order defines the deterministic tie-break for
  // equal request ids.
  std::vector<Response> slots;
  std::vector<std::pair<std::size_t, Request>> valid;  // (slot index, request)
  std::string line;
  std::size_t errors = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      Request request = parse_request(line);
      valid.emplace_back(slots.size(), std::move(request));
      slots.emplace_back();  // Filled after the parallel phase.
    } catch (const std::exception& e) {
      Response response;
      response.id = -1;
      // Salvage the id when the line is valid JSON with a usable id but an
      // invalid request otherwise, so the client can correlate the error.
      // Only exact non-negative integers qualify: parse_request rejects
      // negative ids, so -1 stays an unambiguous "id unparseable" sentinel.
      response.id = salvage_request_id(line);
      response.ok = false;
      response.error = e.what();
      slots.push_back(std::move(response));
      ++errors;
      REMGEN_COUNTER_ADD("serve.parse_errors", 1);
    }
  }

  // Execute concurrently into index-addressed slots: results are identical
  // at any exec::thread_count().
  std::vector<double> latencies_us(valid.size(), 0.0);
  std::vector<Response> executed = exec::parallel_map(
      valid.size(),
      [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        Response response = execute(valid[i].second);
        latencies_us[i] = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        return response;
      },
      exec::chunk_for_cost(valid.size(), /*est_item_us=*/100.0), "serve.replay");
  for (std::size_t i = 0; i < valid.size(); ++i) {
    if (!executed[i].ok) ++errors;
    slots[valid[i].first] = std::move(executed[i]);
  }

  std::stable_sort(slots.begin(), slots.end(),
                   [](const Response& a, const Response& b) { return a.id < b.id; });
  for (const Response& response : slots) out << response.to_jsonl() << '\n';

  ReplayStats stats;
  stats.requests = slots.size();
  stats.errors = errors;
  stats.cache_hits = cache_.hits() - cache_hits_at_entry;
  stats.cache_misses = cache_.misses() - cache_misses_at_entry;
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  stats.qps = stats.wall_seconds > 0.0 ? static_cast<double>(slots.size()) / stats.wall_seconds
                                       : 0.0;
  stats.latency_us = util::percentiles(latencies_us);
  for (const double us : latencies_us) {
    REMGEN_HISTOGRAM_OBSERVE("serve.latency_us", us, {10, 100, 1000, 10000, 100000});
  }
  REMGEN_GAUGE_SET("serve.cache.entries", static_cast<double>(cache_.size()));
  REMGEN_COUNTER_ADD("serve.cache.hits", static_cast<std::int64_t>(stats.cache_hits));
  REMGEN_COUNTER_ADD("serve.cache.misses", static_cast<std::int64_t>(stats.cache_misses));
  return stats;
}

}  // namespace remgen::serve
