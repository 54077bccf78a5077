/// \file status_http.hpp
/// \brief The one table mapping `api::StatusCode` to a canonical HTTP
/// status, shared by every endpoint of the serving front.
///
/// The mapping lives here and only here so a response produced anywhere in
/// the front — eval errors, registry lookups, admin actions — agrees on the
/// wire status for a given failure class. `http_status_for` is a `switch`
/// with no `default`, so adding a `StatusCode` without extending this table
/// is a compiler warning (an error under `MFTI_WERROR`), and
/// `tests/test_net_http.cpp` pins the value of every enumerator — a new
/// code can never silently become a 500.

#pragma once

#include <cstddef>

#include "api/status.hpp"

namespace mfti::net {

/// One HTTP status line: numeric code plus its canonical reason phrase.
struct HttpStatus {
  int code = 500;
  const char* reason = "Internal Server Error";
};

/// Canonical HTTP status of an `api::StatusCode`:
///
/// | api code        | HTTP | rationale                                    |
/// |-----------------|------|----------------------------------------------|
/// | Ok              | 200  | success                                      |
/// | InvalidArgument | 400  | the request itself is unusable               |
/// | Cancelled       | 408  | the request's deadline expired               |
/// | NotFound        | 404  | the named model does not exist               |
/// | NumericalError  | 422  | well-formed request, unevaluable points      |
/// | Unimplemented   | 501  | no implementation for the request            |
/// | Internal        | 500  | escaped exception                            |
constexpr HttpStatus http_status_for(api::StatusCode code) {
  switch (code) {
    case api::StatusCode::Ok:
      return {200, "OK"};
    case api::StatusCode::InvalidArgument:
      return {400, "Bad Request"};
    case api::StatusCode::Cancelled:
      return {408, "Request Timeout"};
    case api::StatusCode::NotFound:
      return {404, "Not Found"};
    case api::StatusCode::NumericalError:
      return {422, "Unprocessable Entity"};
    case api::StatusCode::Unimplemented:
      return {501, "Not Implemented"};
    case api::StatusCode::Internal:
      return {500, "Internal Server Error"};
  }
  // Unreachable for valid enumerators; a malformed cast still gets a
  // well-formed response.
  return {500, "Internal Server Error"};
}

/// Reason phrase for HTTP statuses the front emits that have no
/// `api::StatusCode` origin (admission control, protocol errors).
constexpr const char* http_reason(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 401:
      return "Unauthorized";
    case 403:
      return "Forbidden";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 422:
      return "Unprocessable Entity";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

}  // namespace mfti::net
