fn main() {
    reis_bench::figures::fig09_sensitivity().print();
}
