// Shared harness for CAF runtime tests: builds a full stack (engine →
// fabric → conduit → runtime) for any of the three configurations the paper
// evaluates, so suites can run identical programs over:
//   * UHCAF over Cray SHMEM        (hardware strided, NIC atomics)
//   * UHCAF over MVAPICH2-X SHMEM  (software strided, NIC atomics)
//   * UHCAF over GASNet            (software strided, AM atomics)
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "caf/caf.hpp"
#include "net/fault.hpp"
#include "net/profiles.hpp"

namespace caftest {

enum class Stack { kShmemCray, kShmemMvapich, kGasnet, kArmci, kMpi3 };

inline const char* to_string(Stack s) {
  switch (s) {
    case Stack::kShmemCray: return "uhcaf-cray-shmem";
    case Stack::kShmemMvapich: return "uhcaf-mvapich2x-shmem";
    case Stack::kGasnet: return "uhcaf-gasnet";
    case Stack::kArmci: return "uhcaf-armci";
    case Stack::kMpi3: return "uhcaf-mpi3";
  }
  return "?";
}

class Harness {
 public:
  /// `arm_injector = false` attaches the plan's wire faults (loss,
  /// partitions, flaky links) but schedules no kills and starts no failure
  /// detector, so retransmit exhaustion declares nobody.
  Harness(Stack stack, int images, caf::Options opts = {},
          std::size_t heap = 2 << 20, net::FaultPlan plan = {},
          bool arm_injector = true)
      : stack_(stack),
        fabric_(net::machine_profile(machine(stack)), images) {
    if (plan.active()) {
      // Detector/retransmit tunables flow Options -> plan -> injector; the
      // CAF_FD_* environment family then overrides either source.
      if (opts.fd) plan.fd = *opts.fd;
      plan.apply_env();
      injector_ = std::make_unique<net::FaultInjector>(
          plan, images, fabric_.profile().cores_per_node);
      fabric_.set_fault_injector(injector_.get());
      if (arm_injector) injector_->arm(engine_);
    }
    switch (stack) {
      case Stack::kShmemCray:
      case Stack::kShmemMvapich: {
        shmem_ = std::make_unique<shmem::World>(
            engine_, fabric_,
            net::sw_profile(stack == Stack::kShmemCray
                                ? net::Library::kShmemCray
                                : net::Library::kShmemMvapich,
                            machine(stack)),
            heap);
        conduit_ = std::make_unique<caf::ShmemConduit>(*shmem_);
        break;
      }
      case Stack::kGasnet: {
        gasnet_ = std::make_unique<gasnet::World>(
            engine_, fabric_,
            net::sw_profile(net::Library::kGasnet, machine(stack)), heap);
        conduit_ = std::make_unique<caf::GasnetConduit>(*gasnet_);
        break;
      }
      case Stack::kArmci: {
        armci_ = std::make_unique<armci::World>(
            engine_, fabric_,
            net::sw_profile(net::Library::kArmci, machine(stack)), heap);
        conduit_ = std::make_unique<caf::ArmciConduit>(*armci_);
        break;
      }
      case Stack::kMpi3: {
        mpi3_ = std::make_unique<mpi3::Window>(
            engine_, fabric_,
            net::sw_profile(net::Library::kMpi3, machine(stack)), heap);
        conduit_ = std::make_unique<caf::Mpi3Conduit>(*mpi3_);
        break;
      }
    }
    rt_ = std::make_unique<caf::Runtime>(*conduit_, opts);
  }

  static net::Machine machine(Stack s) {
    return s == Stack::kShmemMvapich || s == Stack::kArmci ||
                   s == Stack::kMpi3
               ? net::Machine::kStampede
               : net::Machine::kXC30;
  }

  caf::Runtime& rt() { return *rt_; }
  sim::Engine& engine() { return engine_; }
  net::Fabric& fabric() { return fabric_; }
  net::FaultInjector* injector() { return injector_.get(); }

  /// Launches `image_main` on every image (each calls rt().init() itself if
  /// `auto_init` is false; by default init is done for them).
  void run(const std::function<void()>& image_main, bool auto_init = true) {
    auto body = [this, image_main, auto_init] {
      if (auto_init) rt_->init();
      image_main();
    };
    if (shmem_) {
      shmem_->launch(body);
    } else if (gasnet_) {
      gasnet_->launch(body);
    } else if (armci_) {
      armci_->launch(body);
    } else {
      mpi3_->launch(body);
    }
    engine_.run();
  }

 private:
  Stack stack_;
  sim::Engine engine_{64 * 1024};
  net::Fabric fabric_;
  std::unique_ptr<net::FaultInjector> injector_;
  std::unique_ptr<shmem::World> shmem_;
  std::unique_ptr<gasnet::World> gasnet_;
  std::unique_ptr<armci::World> armci_;
  std::unique_ptr<mpi3::Window> mpi3_;
  std::unique_ptr<caf::Conduit> conduit_;
  std::unique_ptr<caf::Runtime> rt_;
};

inline constexpr Stack kAllStacks[] = {Stack::kShmemCray, Stack::kShmemMvapich,
                                       Stack::kGasnet, Stack::kArmci,
                                       Stack::kMpi3};

}  // namespace caftest
