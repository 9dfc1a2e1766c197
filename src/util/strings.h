// String splitting for the svcctl interpreter's arguments.
#pragma once

#include <string>
#include <vector>

namespace svc::util {

// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(const std::string& text, char sep);

}  // namespace svc::util
