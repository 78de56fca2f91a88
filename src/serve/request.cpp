#include "serve/request.hpp"

#include <algorithm>
#include <utility>

namespace pnet::serve {

namespace {

bool invalid(RequestError& error, std::string message) {
  error.code = kErrInvalidSpec;
  error.message = std::move(message);
  error.retryable = false;
  return false;
}

}  // namespace

bool decode_request(std::string_view line, Request& out, RequestError& error,
                    const exp::ParseLimits& limits) {
  exp::JsonValue root;
  std::string message;
  if (!exp::parse_json(line, root, message, limits)) {
    error.code = kErrParse;
    error.message = message;
    error.retryable = false;
    return false;
  }
  out = Request{};
  if (!root.is_object()) return invalid(error, "request must be a JSON object");
  if (const exp::JsonValue* stats = root.find("stats"); stats != nullptr) {
    if (!stats->is_bool()) return invalid(error, "stats must be a boolean");
    if (!stats->boolean) {
      return invalid(error, "stats must be true when present");
    }
    if (root.members.size() != 1) {
      return invalid(error, "a stats request carries no other fields");
    }
    out.kind = Request::Kind::kStats;
    return true;
  }
  // deadline_ms belongs to the request, not the spec: take it out before
  // the rest of the object decodes as a spec.
  auto& members = root.members;
  const auto deadline = std::find_if(
      members.begin(), members.end(),
      [](const auto& member) { return member.first == "deadline_ms"; });
  if (deadline != members.end()) {
    const exp::JsonValue& value = deadline->second;
    if (!value.is_number() || value.number < 0.0) {
      return invalid(error, "deadline_ms must be a non-negative number");
    }
    out.deadline_ms = value.number;
    members.erase(deadline);
  }
  if (!exp::decode_spec(root, out.spec, message)) {
    return invalid(error, message);
  }
  if (out.spec.engine == exp::EngineKind::kCustom) {
    return invalid(error, std::string("engine '") +
                              exp::to_string(exp::EngineKind::kCustom) +
                              "' needs an in-process trial function and "
                              "cannot be served");
  }
  if (out.spec.name.empty()) {
    return invalid(error, "request is missing the required 'name' field");
  }
  return true;
}

}  // namespace pnet::serve
