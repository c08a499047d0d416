// An in-process serving stack: a serve::Server behind a serve::Frontend on
// an ephemeral 127.0.0.1 port, its accept thread, and persistent clients.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/frontend.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// `connections` frontend workers and as many client connections, one per
/// worker.  Destruction closes the clients, drains the frontend and joins
/// its accept thread.
struct ServeRig {
  lapclique::serve::Server server;
  std::unique_ptr<lapclique::serve::Frontend> frontend;
  std::thread runner;
  std::vector<std::unique_ptr<lapclique::serve::Client>> clients;

  explicit ServeRig(int connections) {
    lapclique::serve::FrontendOptions fopt;
    fopt.workers = connections;
    frontend = std::make_unique<lapclique::serve::Frontend>(server, fopt);
    frontend->listen();
    runner = std::thread([this] { frontend->run(); });
    for (int c = 0; c < connections; ++c) {
      clients.push_back(std::make_unique<lapclique::serve::Client>(frontend->port()));
    }
  }
  ~ServeRig() {
    clients.clear();
    server.begin_drain();
    runner.join();
  }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
};

}  // namespace perfbench
