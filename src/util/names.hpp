// Enum name registries.
//
// Every enum that reaches a flag, a report or the wire has one table of
// (value, name) entries. Its to_string, its from_string and its names
// listing all read that table, and so does the spec codec (exp/spec.cpp),
// so a name is spelled once and the round trip cannot drift when a value
// is added.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace pnet::util {

template <class E>
struct EnumName {
  E value;
  const char* name;
};

/// The name of `value`, or "?" for a value missing from the table.
template <class E, std::size_t N>
constexpr const char* name_of(const EnumName<E> (&table)[N], E value) {
  for (const EnumName<E>& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

/// The value named `name`, or nullopt for an unknown name.
template <class E, std::size_t N>
constexpr std::optional<E> value_of(const EnumName<E> (&table)[N],
                                    std::string_view name) {
  for (const EnumName<E>& entry : table) {
    if (name == entry.name) return entry.value;
  }
  return std::nullopt;
}

/// Every name in table order, space-separated ("ecmp round-robin ...").
template <class E, std::size_t N>
std::string names_of(const EnumName<E> (&table)[N]) {
  std::string out;
  for (const EnumName<E>& entry : table) {
    if (!out.empty()) out += ' ';
    out += entry.name;
  }
  return out;
}

}  // namespace pnet::util
