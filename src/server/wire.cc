#include "server/wire.h"

#include <utility>

namespace coverage {
namespace wire {

using json::JsonValue;

// ---------------------------------------------------------------- encoders

JsonValue ToJson(const Pattern& pattern, const Schema& schema) {
  JsonValue::Object o;
  o["pattern"] = pattern.ToString();
  o["label"] = pattern.ToLabelledString(schema);
  o["level"] = pattern.level();
  return o;
}

JsonValue ToJson(const MupSearchStats& stats) {
  JsonValue::Object o;
  o["coverage_queries"] = stats.coverage_queries;
  o["nodes_generated"] = stats.nodes_generated;
  o["nodes_pruned"] = stats.nodes_pruned;
  o["num_mups"] = stats.num_mups;
  o["seconds"] = stats.seconds;
  return o;
}

JsonValue ToJson(const AuditResult& result, const Schema& schema) {
  JsonValue::Object o;
  o["algorithm"] = result.algorithm;
  o["max_level"] = result.max_level;
  JsonValue::Array mups;
  if (result.packed.has_value()) {
    // Encode straight from the packed form — PatternCodec's renderers are
    // byte-identical to Pattern's, so the wire bytes do not depend on
    // whether the result was materialized.
    const PackedMupSet& packed = *result.packed;
    const PatternCodec& codec = packed.codec();
    mups.reserve(packed.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
      JsonValue::Object m;
      m["pattern"] = codec.ToString(packed[i]);
      m["label"] = codec.ToLabelledString(packed[i], schema);
      m["level"] = codec.level(packed[i]);
      mups.push_back(std::move(m));
    }
  } else {
    mups.reserve(result.mups.size());
    for (const Pattern& p : result.mups) mups.push_back(ToJson(p, schema));
  }
  o["mups"] = std::move(mups);
  o["num_rows"] = result.num_rows;
  o["planner_rationale"] = result.planner_rationale;
  o["stats"] = ToJson(result.stats);
  o["tau"] = result.tau;
  return o;
}

JsonValue ToJson(const QueryBatchResult& result) {
  JsonValue::Object o;
  o["coverage_queries"] = result.coverage_queries;
  JsonValue::Array results;
  results.reserve(result.results.size());
  for (const QueryOutcome& q : result.results) {
    JsonValue::Object r;
    r["coverage"] = q.coverage;
    r["covered"] = q.covered;
    results.push_back(std::move(r));
  }
  o["results"] = std::move(results);
  o["seconds"] = result.seconds;
  return o;
}

JsonValue ToJson(const CoveragePlan& plan, const Schema& schema) {
  JsonValue::Object o;
  JsonValue::Array items;
  items.reserve(plan.items.size());
  for (const AcquisitionItem& item : plan.items) {
    JsonValue::Object i;
    JsonValue::Array combination;
    combination.reserve(item.combination.size());
    for (const Value v : item.combination) {
      combination.push_back(static_cast<std::int64_t>(v));
    }
    i["combination"] = std::move(combination);
    const Pattern as_pattern = Pattern::FromTuple(item.combination);
    i["label"] = as_pattern.ToLabelledString(schema);
    i["pattern"] = as_pattern.ToString();
    i["satisfies"] = ToJson(item.generalized, schema);
    i["copies"] = item.copies;
    items.push_back(std::move(i));
  }
  o["items"] = std::move(items);
  JsonValue::Array targets;
  targets.reserve(plan.targets.size());
  for (const Pattern& p : plan.targets) targets.push_back(ToJson(p, schema));
  o["targets"] = std::move(targets);
  JsonValue::Array unresolvable;
  unresolvable.reserve(plan.unresolvable.size());
  for (const Pattern& p : plan.unresolvable) {
    unresolvable.push_back(ToJson(p, schema));
  }
  o["unresolvable"] = std::move(unresolvable);
  JsonValue::Object stats;
  stats["combinations_scanned"] = plan.stats.combinations_scanned;
  stats["iterations"] = plan.stats.iterations;
  stats["seconds"] = plan.stats.seconds;
  stats["tree_nodes_visited"] = plan.stats.tree_nodes_visited;
  o["stats"] = std::move(stats);
  o["total_tuples"] = plan.TotalTuples();
  return o;
}

JsonValue ToJson(const EngineUpdateStats& stats) {
  JsonValue::Object o;
  o["combinations_tombstoned"] = stats.combinations_tombstoned;
  o["coverage_queries"] = stats.coverage_queries;
  o["mups_added"] = stats.mups_added;
  o["mups_demoted"] = stats.mups_demoted;
  o["mups_newly_covered"] = stats.mups_newly_covered;
  o["mups_rechecked"] = stats.mups_rechecked;
  o["new_combinations"] = stats.new_combinations;
  o["rows_appended"] = stats.rows_appended;
  o["rows_retracted"] = stats.rows_retracted;
  o["seconds"] = stats.seconds;
  return o;
}

JsonValue ToJson(const IngestStats& stats) {
  JsonValue::Object o;
  o["chunks"] = stats.chunks;
  o["coverage_queries"] = stats.coverage_queries;
  o["peak_chunk_rows"] = stats.peak_chunk_rows;
  o["read_seconds"] = stats.read_seconds;
  o["rows"] = stats.rows;
  o["update_seconds"] = stats.update_seconds;
  return o;
}

JsonValue ToJson(const Schema& schema) {
  JsonValue::Object o;
  JsonValue::Array attributes;
  attributes.reserve(static_cast<std::size_t>(schema.num_attributes()));
  for (const Attribute& attr : schema.attributes()) {
    JsonValue::Object a;
    a["name"] = attr.name;
    JsonValue::Array values;
    values.reserve(attr.value_names.size());
    for (const std::string& v : attr.value_names) values.push_back(v);
    a["values"] = std::move(values);
    attributes.push_back(std::move(a));
  }
  o["attributes"] = std::move(attributes);
  return o;
}

// ---------------------------------------------------------------- decoders

namespace {

/// Strictness backbone: every decoder lists the members it understands and
/// anything else is an error (typo'd "maxlevel" must not silently audit
/// with the default).
Status RejectUnknownMembers(const JsonValue& v,
                            std::initializer_list<const char*> known) {
  if (!v.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  for (const auto& [key, value] : v.AsObject()) {
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      return Status::InvalidArgument("unknown request member '" + key + "'");
    }
  }
  return Status::OK();
}

/// Optional-member helpers: absent leaves the default, present must decode.
Status MaybeUint(const JsonValue& v, const std::string& key,
                 std::uint64_t* out) {
  if (v.Find(key) == nullptr) return Status::OK();
  auto parsed = v.GetUint(key);
  if (!parsed.ok()) return parsed.status();
  *out = *parsed;
  return Status::OK();
}

Status MaybeInt(const JsonValue& v, const std::string& key, int* out) {
  if (v.Find(key) == nullptr) return Status::OK();
  auto parsed = v.GetInt(key);
  if (!parsed.ok()) return parsed.status();
  *out = static_cast<int>(*parsed);
  return Status::OK();
}

Status MaybeBool(const JsonValue& v, const std::string& key, bool* out) {
  if (v.Find(key) == nullptr) return Status::OK();
  auto parsed = v.GetBool(key);
  if (!parsed.ok()) return parsed.status();
  *out = *parsed;
  return Status::OK();
}

StatusOr<MupSearchOptions::DominanceMode> DominanceModeFromName(
    const std::string& name) {
  if (name == "bitmap") return MupSearchOptions::DominanceMode::kBitmapIndex;
  if (name == "scan") return MupSearchOptions::DominanceMode::kLinearScan;
  if (name == "none") return MupSearchOptions::DominanceMode::kNoPruning;
  return Status::InvalidArgument("unknown dominance_mode '" + name +
                                 "' (expected bitmap | scan | none)");
}

StatusOr<std::vector<Pattern>> PatternListFromJson(const JsonValue& list,
                                                   const Schema& schema,
                                                   const char* what) {
  if (!list.is_array()) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be an array of pattern strings");
  }
  std::vector<Pattern> out;
  out.reserve(list.AsArray().size());
  for (const JsonValue& entry : list.AsArray()) {
    if (!entry.is_string()) {
      return Status::InvalidArgument(std::string(what) +
                                     " must be an array of pattern strings");
    }
    auto pattern = Pattern::Parse(entry.AsString(), schema);
    if (!pattern.ok()) return pattern.status();
    out.push_back(std::move(*pattern));
  }
  return out;
}

}  // namespace

StatusOr<MupAlgorithm> AlgorithmFromName(const std::string& name) {
  if (name == "auto") return MupAlgorithm::kAuto;
  if (name == "deepdiver") return MupAlgorithm::kDeepDiver;
  if (name == "breaker" || name == "pattern-breaker") {
    return MupAlgorithm::kPatternBreaker;
  }
  if (name == "combiner" || name == "pattern-combiner") {
    return MupAlgorithm::kPatternCombiner;
  }
  if (name == "apriori") return MupAlgorithm::kApriori;
  if (name == "naive") return MupAlgorithm::kNaive;
  return Status::InvalidArgument(
      "unknown algorithm '" + name +
      "' (expected auto | deepdiver | breaker | combiner | apriori | naive)");
}

StatusOr<AuditRequest> AuditRequestFromJson(const JsonValue& v) {
  COVERAGE_RETURN_IF_ERROR(RejectUnknownMembers(
      v, {"tau", "max_level", "algorithm", "dominance_mode",
          "enumeration_limit"}));
  AuditRequest request;
  COVERAGE_RETURN_IF_ERROR(MaybeUint(v, "tau", &request.tau));
  COVERAGE_RETURN_IF_ERROR(MaybeInt(v, "max_level", &request.max_level));
  COVERAGE_RETURN_IF_ERROR(
      MaybeUint(v, "enumeration_limit", &request.enumeration_limit));
  if (v.Find("algorithm") != nullptr) {
    auto name = v.GetString("algorithm");
    if (!name.ok()) return name.status();
    auto algorithm = AlgorithmFromName(*name);
    if (!algorithm.ok()) return algorithm.status();
    request.algorithm = *algorithm;
  }
  if (v.Find("dominance_mode") != nullptr) {
    auto name = v.GetString("dominance_mode");
    if (!name.ok()) return name.status();
    auto mode = DominanceModeFromName(*name);
    if (!mode.ok()) return mode.status();
    request.dominance_mode = *mode;
  }
  return request;
}

StatusOr<EnhanceRequest> EnhanceRequestFromJson(const JsonValue& v,
                                                const Schema& schema) {
  COVERAGE_RETURN_IF_ERROR(RejectUnknownMembers(
      v, {"tau", "lambda", "rules", "min_value_count", "use_naive_greedy",
          "enumeration_limit", "mups"}));
  EnhanceRequest request;
  COVERAGE_RETURN_IF_ERROR(MaybeUint(v, "tau", &request.tau));
  COVERAGE_RETURN_IF_ERROR(MaybeInt(v, "lambda", &request.lambda));
  COVERAGE_RETURN_IF_ERROR(
      MaybeUint(v, "min_value_count", &request.min_value_count));
  COVERAGE_RETURN_IF_ERROR(
      MaybeBool(v, "use_naive_greedy", &request.use_naive_greedy));
  COVERAGE_RETURN_IF_ERROR(
      MaybeUint(v, "enumeration_limit", &request.enumeration_limit));
  if (const JsonValue* rules = v.Find("rules")) {
    if (!rules->is_array()) {
      return Status::InvalidArgument("'rules' must be an array of strings");
    }
    for (const JsonValue& rule : rules->AsArray()) {
      if (!rule.is_string()) {
        return Status::InvalidArgument("'rules' must be an array of strings");
      }
      request.rules.push_back(rule.AsString());
    }
  }
  if (const JsonValue* mups = v.Find("mups")) {
    auto patterns = PatternListFromJson(*mups, schema, "'mups'");
    if (!patterns.ok()) return patterns.status();
    request.mups = std::move(*patterns);
  }
  return request;
}

StatusOr<QueryBatchRequest> QueryBatchRequestFromJson(const JsonValue& v,
                                                      const Schema& schema) {
  COVERAGE_RETURN_IF_ERROR(
      RejectUnknownMembers(v, {"queries", "patterns", "tau"}));
  const JsonValue* queries = v.Find("queries");
  const JsonValue* patterns = v.Find("patterns");
  if ((queries != nullptr) == (patterns != nullptr)) {
    return Status::InvalidArgument(
        "pass exactly one of 'queries' (objects) or 'patterns' (strings)");
  }
  QueryBatchRequest request;
  if (patterns != nullptr) {
    std::uint64_t tau = 0;
    COVERAGE_RETURN_IF_ERROR(MaybeUint(v, "tau", &tau));
    auto parsed = PatternListFromJson(*patterns, schema, "'patterns'");
    if (!parsed.ok()) return parsed.status();
    request.queries.reserve(parsed->size());
    for (Pattern& p : *parsed) {
      request.queries.push_back(QueryRequest{std::move(p), tau});
    }
    return request;
  }
  if (v.Find("tau") != nullptr) {
    return Status::InvalidArgument(
        "'tau' accompanies 'patterns'; with 'queries' set it per query");
  }
  if (!queries->is_array()) {
    return Status::InvalidArgument("'queries' must be an array of objects");
  }
  request.queries.reserve(queries->AsArray().size());
  for (const JsonValue& q : queries->AsArray()) {
    COVERAGE_RETURN_IF_ERROR(RejectUnknownMembers(q, {"pattern", "tau"}));
    auto text = q.GetString("pattern");
    if (!text.ok()) return text.status();
    auto pattern = Pattern::Parse(*text, schema);
    if (!pattern.ok()) return pattern.status();
    QueryRequest request_one;
    request_one.pattern = std::move(*pattern);
    COVERAGE_RETURN_IF_ERROR(MaybeUint(q, "tau", &request_one.tau));
    request.queries.push_back(std::move(request_one));
  }
  return request;
}

StatusOr<Schema> SchemaFromJson(const JsonValue& v) {
  COVERAGE_RETURN_IF_ERROR(RejectUnknownMembers(v, {"attributes"}));
  const JsonValue* attributes = v.Find("attributes");
  if (attributes == nullptr || !attributes->is_array() ||
      attributes->AsArray().empty()) {
    return Status::InvalidArgument(
        "'attributes' must be a non-empty array of attribute objects");
  }
  std::vector<Attribute> out;
  out.reserve(attributes->AsArray().size());
  for (const JsonValue& a : attributes->AsArray()) {
    COVERAGE_RETURN_IF_ERROR(
        RejectUnknownMembers(a, {"name", "values", "cardinality"}));
    auto name = a.GetString("name");
    if (!name.ok()) return name.status();
    const JsonValue* values = a.Find("values");
    const JsonValue* cardinality = a.Find("cardinality");
    if ((values != nullptr) == (cardinality != nullptr)) {
      return Status::InvalidArgument(
          "attribute '" + *name +
          "': pass exactly one of 'values' or 'cardinality'");
    }
    if (cardinality != nullptr) {
      auto c = a.GetUint("cardinality");
      if (!c.ok()) return c.status();
      if (*c < 1 || *c > 1024) {
        return Status::InvalidArgument("attribute '" + *name +
                                       "': cardinality must be in [1, 1024]");
      }
      out.push_back(Attribute::Anonymous(*name, static_cast<int>(*c)));
      continue;
    }
    Attribute attr;
    attr.name = *name;
    if (!values->is_array() || values->AsArray().empty()) {
      return Status::InvalidArgument(
          "attribute '" + *name + "': 'values' must be a non-empty array");
    }
    for (const JsonValue& value : values->AsArray()) {
      if (!value.is_string()) {
        return Status::InvalidArgument("attribute '" + *name +
                                       "': values must be strings");
      }
      attr.value_names.push_back(value.AsString());
    }
    out.push_back(std::move(attr));
  }
  return Schema(std::move(out));
}

StatusOr<Dataset> RowsFromJson(const JsonValue& v, const Schema& schema) {
  COVERAGE_RETURN_IF_ERROR(RejectUnknownMembers(v, {"rows"}));
  const JsonValue* rows = v.Find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("'rows' must be an array of rows");
  }
  Dataset out(schema);
  const int d = schema.num_attributes();
  std::vector<Value> decoded(static_cast<std::size_t>(d));
  for (std::size_t r = 0; r < rows->AsArray().size(); ++r) {
    const JsonValue& row = rows->AsArray()[r];
    if (!row.is_array() || row.AsArray().size() != static_cast<std::size_t>(d)) {
      return Status::InvalidArgument(
          "row " + std::to_string(r) + " must be an array of " +
          std::to_string(d) + " cells (one per attribute)");
    }
    for (int a = 0; a < d; ++a) {
      const JsonValue& cell = row.AsArray()[static_cast<std::size_t>(a)];
      if (cell.is_int()) {
        const std::int64_t raw = cell.AsInt();
        if (raw < 0 || raw >= schema.cardinality(a)) {
          return Status::InvalidArgument(
              "row " + std::to_string(r) + ", attribute " +
              schema.attribute(a).name + ": encoded value " +
              std::to_string(raw) + " is out of range [0, " +
              std::to_string(schema.cardinality(a)) + ")");
        }
        decoded[static_cast<std::size_t>(a)] = static_cast<Value>(raw);
      } else if (cell.is_string()) {
        auto value = schema.ValueIndex(a, cell.AsString());
        if (!value.ok()) {
          return Status::InvalidArgument(
              "row " + std::to_string(r) + ", attribute " +
              schema.attribute(a).name + ": " + value.status().message());
        }
        decoded[static_cast<std::size_t>(a)] = *value;
      } else {
        return Status::InvalidArgument(
            "row " + std::to_string(r) +
            ": cells must be encoded integers or value-label strings");
      }
    }
    out.AppendRow(decoded);
  }
  return out;
}

}  // namespace wire
}  // namespace coverage
