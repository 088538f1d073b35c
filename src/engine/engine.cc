#include "engine/engine.h"

#include <memory>
#include <utility>

namespace pverify {

// Out-of-line so the interface has a home TU for its vtable.
Engine::~Engine() = default;

std::future<QueryResult> Engine::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> future = promise->get_future();
  Submit(std::move(request),
         [promise](QueryResult result, std::exception_ptr error) {
           if (error != nullptr) {
             promise->set_exception(error);
           } else {
             promise->set_value(std::move(result));
           }
         });
  return future;
}

}  // namespace pverify
